package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// memWindow brackets a measured phase with two runtime.MemStats reads.
type memWindow struct{ before, after runtime.MemStats }

func startMem() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

func (w *memWindow) stop() { runtime.ReadMemStats(&w.after) }

func (w *memWindow) allocs() float64 { return float64(w.after.Mallocs - w.before.Mallocs) }

func (w *memWindow) gcs() float64 { return float64(w.after.NumGC - w.before.NumGC) }

// pauseP99 is the p99 stop-the-world pause of the cycles inside the
// window, from the runtime's ring of the 256 most recent pauses.
func (w *memWindow) pauseP99() time.Duration {
	var ps []int64
	first := w.before.NumGC + 1
	if w.after.NumGC > 256 {
		first = max(first, w.after.NumGC-255)
	}
	for g := first; g <= w.after.NumGC; g++ {
		ps = append(ps, int64(w.after.PauseNs[(g+255)%256]))
	}
	slices.Sort(ps)
	return time.Duration(pctl(ps, 99))
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB; where
// /proc is missing it falls back to the memory the Go runtime obtained.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// sampler polls a probe every period until stopped: goroutine counts
// and queue depths are levels, not counters, so they are sampled.
type sampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	vals  []int64
}

func startSampler(period time.Duration, probe func() int64) *sampler {
	s := &sampler{stopc: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
				s.vals = append(s.vals, probe())
			}
		}
	}()
	return s
}

// stop ends the sampler and returns its samples, sorted.
func (s *sampler) stop() []int64 {
	close(s.stopc)
	s.wg.Wait()
	slices.Sort(s.vals)
	return s.vals
}
