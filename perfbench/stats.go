package main

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is one outlier, not a percentile.
const minBeyond = 10

// tailLadder is the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99, 90, 50}

// tailPct returns the highest percentile of tailLadder that leaves at
// least minBeyond of n samples beyond it, or 0 when none does.
func tailPct(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	return min(max(k, 1), n)
}

// pctl returns percentile p of sorted by nearest rank (0 when empty).
func pctl(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// sorted returns a sorted copy of xs.
func sorted(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the median of xs (the mean of the middle pair for an
// even count; 0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Set-up is repeated and its median reported, so that one slow set-up
// does not set the figure: at least minSetups times, then on until
// setupBudget is spent, at most maxSetups times.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// repeatSetup runs build by that rule, but at least n times. The first
// n results go to use, in order; the others, built only to time them,
// are discarded with drop. It returns the median set-up time in seconds.
func repeatSetup[T any](n int, build func(i int) (T, error), use func(i int, v T) error, drop func(T)) (float64, error) {
	var times []float64
	var spent time.Duration
	for i := 0; i < n || (i < maxSetups && (i < minSetups || spent < setupBudget)); i++ {
		t0 := time.Now()
		v, err := build(i)
		took := time.Since(t0)
		if err != nil {
			return 0, err
		}
		times = append(times, took.Seconds())
		spent += took
		if i >= n {
			drop(v)
		} else if err := use(i, v); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// mean returns the mean of xs (0 when empty).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hist is a lock-free log-linear histogram of non-negative values:
// 2^subBits buckets per octave. A quantile is interpolated inside its
// bucket, so its error is below the bucket width, 1/2^subBits of the
// value.
type hist struct {
	b [64 << subBits]atomic.Uint64
}

const subBits = 5

func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return (shift+1)<<subBits | int(v>>shift)&(1<<subBits-1)
}

// bucketRange is the value range [lo, lo+width) bucket b holds.
func bucketRange(b int) (lo, width float64) {
	if b < 1<<subBits {
		return float64(b), 1
	}
	shift := b>>subBits - 1
	return float64(int64(1<<subBits|b&(1<<subBits-1)) << shift), float64(int64(1) << shift)
}

func (h *hist) observe(v int64) { h.b[bucketOf(v)].Add(1) }

// add adds o's samples to h.
func (h *hist) add(o *hist) {
	for i := range h.b {
		h.b[i].Add(o.b[i].Load())
	}
}

func (h *hist) count() uint64 {
	var n uint64
	for i := range h.b {
		n += h.b[i].Load()
	}
	return n
}

// quantile returns percentile p (nearest rank), placed inside its
// bucket by its rank among the bucket's samples.
func (h *hist) quantile(p float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	want := uint64(rank(int(n), p))
	var seen uint64
	for i := range h.b {
		c := h.b[i].Load()
		if seen+c >= want {
			lo, w := bucketRange(i)
			return lo + w*(float64(want-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return 0
}
