package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/sim"
)

// indexCounters are the capacity-index figures the traced run collects:
// calls and busy time per operation, plus FindSlot's latency spread.
// Every shard loop updates them concurrently, so all are atomic.
type indexCounters struct {
	findSlot, commit, release, canPlace, minAvail   atomic.Int64
	findSlotNs, commitNs, releaseNs, canPlaceNs, mn atomic.Int64
	findSlotHist, commitHist, releaseHist           hist
}

// reset zeroes every counter; calls racing it land on either side.
func (c *indexCounters) reset() {
	for _, a := range []*atomic.Int64{&c.findSlot, &c.commit, &c.release, &c.canPlace, &c.minAvail,
		&c.findSlotNs, &c.commitNs, &c.releaseNs, &c.canPlaceNs, &c.mn} {
		a.Store(0)
	}
	for _, h := range []*hist{&c.findSlotHist, &c.commitHist, &c.releaseHist} {
		for i := range h.b {
			h.b[i].Store(0)
		}
	}
}

func (c *indexCounters) busyNs() int64 {
	return c.findSlotNs.Load() + c.commitNs.Load() + c.releaseNs.Load() + c.canPlaceNs.Load() + c.mn.Load()
}

// countingIndex times and counts the calls the schedulers and shard
// loops make through the CapacityIndex seam. Calls it does not override
// pass through uncounted.
type countingIndex struct {
	profile.CapacityIndex
	c *indexCounters
}

func (x countingIndex) FindSlot(ready core.Time, q int, dur core.Time) (core.Time, bool) {
	t0 := time.Now()
	s, ok := x.CapacityIndex.FindSlot(ready, q, dur)
	d := int64(time.Since(t0))
	x.c.findSlot.Add(1)
	x.c.findSlotNs.Add(d)
	x.c.findSlotHist.observe(d)
	return s, ok
}

func (x countingIndex) Commit(start, dur core.Time, q int) error {
	t0 := time.Now()
	err := x.CapacityIndex.Commit(start, dur, q)
	d := int64(time.Since(t0))
	x.c.commit.Add(1)
	x.c.commitNs.Add(d)
	x.c.commitHist.observe(d)
	return err
}

func (x countingIndex) Release(start, dur core.Time, q int) error {
	t0 := time.Now()
	err := x.CapacityIndex.Release(start, dur, q)
	d := int64(time.Since(t0))
	x.c.release.Add(1)
	x.c.releaseNs.Add(d)
	x.c.releaseHist.observe(d)
	return err
}

func (x countingIndex) CanPlace(start, dur core.Time, q int) bool {
	t0 := time.Now()
	ok := x.CapacityIndex.CanPlace(start, dur, q)
	x.c.canPlace.Add(1)
	x.c.canPlaceNs.Add(int64(time.Since(t0)))
	return ok
}

func (x countingIndex) MinAvailable(t0, t1 core.Time) int {
	s := time.Now()
	v := x.CapacityIndex.MinAvailable(t0, t1)
	x.c.minAvail.Add(1)
	x.c.mn.Add(int64(time.Since(s)))
	return v
}

func (x countingIndex) CloneIndex() profile.CapacityIndex {
	return countingIndex{x.CapacityIndex.CloneIndex(), x.c}
}

// idx holds the counters of the current traced phase; countedBackend
// names the registered wrapper of each real backend.
var (
	idx          = &indexCounters{}
	registerOnce sync.Once
)

func countedBackend(backend string) string { return "bench-" + backend }

// registerCounting registers a counting wrapper for every real backend,
// once per process, under countedBackend's name.
func registerCounting() {
	registerOnce.Do(func() {
		for _, b := range []string{"array", "tree"} {
			profile.RegisterBackend(countedBackend(b), func(m int) profile.CapacityIndex {
				inner, err := profile.NewIndex(b, m)
				if err != nil {
					panic(err) // both backends are compiled in
				}
				return countingIndex{inner, idx}
			})
		}
	})
}

// timedPolicy times every Dispatch call of a simulator policy (the
// scheduler's decision at one event) and counts the queue it scans.
type timedPolicy struct {
	sim.Policy
	lat     *hist
	scanned *int64
}

func (p timedPolicy) Dispatch(now core.Time, queue []sim.Queued, tl profile.CapacityIndex) []int {
	t0 := time.Now()
	out := p.Policy.Dispatch(now, queue, tl)
	p.lat.observe(int64(time.Since(t0)))
	*p.scanned += int64(len(queue))
	return out
}
