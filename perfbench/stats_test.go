package main

import (
	"math"
	"testing"
)

func TestTailPct(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {1_000_000, 99},
	} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPct(c.n); p > 0 && c.n-rank(c.n, p) < minBeyond {
			t.Errorf("tailPct(%d) = p%g leaves %d samples beyond it", c.n, p, c.n-rank(c.n, p))
		}
	}
}

func TestPctlNearestRank(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {90, 900}, {99, 990}, {100, 1000}, {0, 1}} {
		if got := pctl(xs, c.p); got != c.want {
			t.Errorf("pctl(1..1000, %g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := pctl(nil, 50); got != 0 {
		t.Errorf("pctl(empty) = %d, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

func TestHistQuantileWithinBucket(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.observe(v)
	}
	for _, p := range []float64{50, 90, 99} {
		want := p / 100 * 100_000
		if got := h.quantile(p); math.Abs(got-want)/want > 1.0/(1<<subBits) {
			t.Errorf("quantile(%g) = %g, want %g within 1/%d", p, got, want, 1<<subBits)
		}
	}
	for v := int64(0); v < 1<<40; v = v*3 + 1 {
		if lo, w := bucketRange(bucketOf(v)); float64(v) < lo || float64(v) >= lo+w || w > max(1, float64(v)/(1<<subBits)) {
			t.Errorf("value %d lands in bucket [%g, %g)", v, lo, lo+w)
		}
	}
}

func TestHistAddPoolsSamples(t *testing.T) {
	var a, b, all hist
	for v := int64(1); v <= 10_000; v++ {
		h := &a
		if v%3 == 0 {
			h = &b
		}
		h.observe(v)
		all.observe(v)
	}
	a.add(&b)
	if a.count() != all.count() {
		t.Fatalf("pooled count = %d, want %d", a.count(), all.count())
	}
	for _, p := range []float64{50, 90, 99} {
		if got, want := a.quantile(p), all.quantile(p); got != want {
			t.Errorf("pooled quantile(%g) = %g, want %g", p, got, want)
		}
	}
}

func TestRepeatSetupUsesFirstN(t *testing.T) {
	var used, dropped []int
	setup, err := repeatSetup(4, func(i int) (int, error) { return i, nil },
		func(i, v int) error {
			if i != v {
				t.Errorf("use(%d) got the result of build %d", i, v)
			}
			used = append(used, v)
			return nil
		}, func(v int) { dropped = append(dropped, v) })
	if err != nil || setup < 0 {
		t.Fatalf("repeatSetup = %g, %v", setup, err)
	}
	// Instant builds never spend the budget, so the rule runs to maxSetups.
	if len(used) != 4 || len(dropped) != maxSetups-4 || dropped[0] != 4 {
		t.Errorf("used %v, dropped %v; want builds 0-3 used and 4-%d dropped", used, dropped, maxSetups-1)
	}
}
