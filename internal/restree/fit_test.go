package restree

import (
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/rng"
)

// Dense-profile shape shared by the table test and BenchmarkEarliestFit:
// m=256 with α=0.25, so every earliest-fit request carries a 64-wide
// floor and reservations fill the 192-wide α-prefix. Preloads are narrow
// (1–48 wide, 50–5000 long); denseTicks per reservation keeps the prefix
// about two thirds full, whatever the count.
const (
	denseM     = 256
	denseFloor = 64
	denseTicks = 112
)

func logU(r *rng.PCG, lo, hi float64) core.Time { return core.Time(r.LogUniform(lo, hi)) }

// denseTree admits n reservations the way a resd shard does: each at the
// earliest start >= its ready time with q+floor processors free. When tl
// is non-nil the array Timeline places them instead and the tree must
// agree on every placement before both commit.
func denseTree(tb testing.TB, n int, seed uint64, tl *profile.Timeline) *Tree {
	tb.Helper()
	r := rng.New(seed)
	tr := New(denseM)
	horizon := int64(n) * denseTicks
	for i := 0; i < n; i++ {
		ready := core.Time(r.Int63n(horizon))
		q, dur := int(logU(r, 1, 48)), logU(r, 50, 5000)
		s, ok := tr.FindSlot(ready, q+denseFloor, dur)
		if tl != nil {
			ws, wok := tl.FindSlot(ready, q+denseFloor, dur)
			if ok != wok || s != ws {
				tb.Fatalf("preload %d: FindSlot(%v, %d, %v) = %v,%v; array %v,%v", i, ready, q+denseFloor, dur, s, ok, ws, wok)
			}
			if err := tl.Commit(s, dur, q); err != nil {
				tb.Fatal(err)
			}
		}
		if !ok {
			tb.Fatalf("preload %d never fits", i)
		}
		if err := tr.Commit(s, dur, q); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

// TestEarliestFitDenseTable pins EarliestFit to the array Timeline's
// FindSlot on a 20k-reservation profile, at the walk's edge cases:
// whole-tree prunes, exact-capacity fits, unbounded and overflowing
// windows, clamped and trailing start times, and fits that end exactly
// where a blocked segment starts.
func TestEarliestFitDenseTable(t *testing.T) {
	tl := profile.New(denseM)
	tr := denseTree(t, 20_000, 7, tl)
	checkInvariants(t, tr)
	bps := tl.Breakpoints()
	if got := tr.Breakpoints(); len(got) != len(bps) {
		t.Fatalf("dense preload: %d segments, array %d", len(got), len(bps))
	}
	for i, at := range tr.Breakpoints() {
		if at != bps[i] || tr.AvailableAt(at) != tl.AvailableAt(at) {
			t.Fatalf("dense preload: segment %d diverges at %v", i, at)
		}
	}
	last := bps[len(bps)-1]
	segEnd := func(i int) core.Time { return bps[i+1] }
	mid := len(bps) / 2
	// The first segment past mid that has capacity strictly above its
	// successor: a q equal to its capacity fits on it and is blocked
	// right after it.
	drop := mid
	for ; tl.AvailableAt(bps[drop]) <= tl.AvailableAt(bps[drop+1]); drop++ {
		if drop+2 == len(bps) {
			t.Fatal("no capacity drop past the middle of the profile")
		}
	}
	dropCap := tl.AvailableAt(bps[drop])

	type probe struct {
		name      string
		q         int
		dur, from core.Time
		want      core.Time // checked when wantOK
		wantOK    bool
		pinned    bool // want/wantOK are exact expectations, not just the array's answer
	}
	cases := []probe{
		{name: "wider than m: whole-tree max prune, then failure", q: denseM + 1, dur: 1, from: 0, pinned: true},
		{name: "wider than m, longer window", q: denseM + 1, dur: 10, from: 0, pinned: true},
		{name: "full machine", q: denseM, dur: 10, from: 0},
		{name: "widest request of the mix", q: 176 + denseFloor, dur: 100, from: bps[mid]},
		{name: "q equal to the segment's capacity", q: dropCap, dur: 1, from: bps[drop],
			want: bps[drop], wantOK: true, pinned: true},
		{name: "fit ends exactly at a blocked start", q: dropCap, dur: segEnd(drop) - bps[drop], from: bps[drop],
			want: bps[drop], wantOK: true, pinned: true},
		{name: "one tick too long for the stretch before a block", q: dropCap, dur: segEnd(drop) - bps[drop] + 1, from: bps[drop]},
		{name: "infinite duration, narrow", q: 1 + denseFloor, dur: core.Infinity, from: 0},
		{name: "infinite duration, full machine", q: denseM, dur: core.Infinity, from: bps[mid], want: last, wantOK: true, pinned: true},
		{name: "infinite duration, too wide", q: denseM + 1, dur: core.Infinity, from: 0, pinned: true},
		{name: "negative notBefore", q: 150 + denseFloor, dur: 200, from: -5},
		{name: "negative notBefore, narrow", q: 1, dur: 1, from: -1_000_000, want: 0, wantOK: true, pinned: true},
		// A finite dur so long that s+dur wraps past Infinity: both
		// backends accept the candidate start they hold when it wraps,
		// here at notBefore and after one jump past a blocked segment.
		{name: "s+dur overflows at notBefore", q: denseM, dur: core.Infinity - 1, from: bps[mid]},
		{name: "s+dur overflows after a jump", q: dropCap + 1, dur: core.Infinity - segEnd(drop) + 1, from: bps[drop]},
		{name: "notBefore past the last breakpoint", q: denseM, dur: 1000, from: last + 100, want: last + 100, wantOK: true, pinned: true},
	}
	for _, c := range cases {
		got, ok := tr.EarliestFit(c.q, c.dur, c.from)
		ref, refOK := tl.FindSlot(c.from, c.q, c.dur)
		if ok != refOK || (ok && got != ref) {
			t.Errorf("%s: EarliestFit(q=%d, dur=%v, from=%v) = %v,%v; array %v,%v", c.name, c.q, c.dur, c.from, got, ok, ref, refOK)
		}
		if c.pinned && (ok != c.wantOK || (ok && got != c.want)) {
			t.Errorf("%s: EarliestFit(q=%d, dur=%v, from=%v) = %v,%v; want %v,%v", c.name, c.q, c.dur, c.from, got, ok, c.want, c.wantOK)
		}
	}

	// Random probes across the profile, wide and narrow, in the
	// proportions of an admission mix.
	r := rng.New(11)
	for i := 0; i < 5000; i++ {
		from := core.Time(r.Int63n(int64(last) + 1000))
		q, dur := int(logU(r, 1, 32))+denseFloor, logU(r, 50, 2000)
		if r.Bool(0.2) {
			q, dur = r.IntRange(128, 176)+denseFloor, logU(r, 20, 200)
		}
		got, ok := tr.EarliestFit(q, dur, from)
		ref, refOK := tl.FindSlot(from, q, dur)
		if ok != refOK || (ok && got != ref) {
			t.Fatalf("probe %d: EarliestFit(q=%d, dur=%v, from=%v) = %v,%v; array %v,%v", i, q, dur, from, got, ok, ref, refOK)
		}
	}
}

// BenchmarkEarliestFit measures one earliest-fit query with the α floor
// on dense profiles: deep-* on 50k reservations (about 96k segments),
// small on 1500 (the simulator's instance size). deep-wide probes are
// 128–176 wide next to the 192-wide prefix and scan far to a fit;
// deep-narrow probes are 1–32 wide and mostly fit near their ready time.
func BenchmarkEarliestFit(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
		wide bool
	}{
		{"deep-wide", 50_000, true},
		{"deep-narrow", 50_000, false},
		{"small", 1500, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr := denseTree(b, bc.n, 1, nil)
			horizon := int64(bc.n) * denseTicks
			type req struct {
				q         int
				dur, from core.Time
			}
			r := rng.New(2)
			reqs := make([]req, 1024)
			for i := range reqs {
				reqs[i] = req{int(logU(r, 1, 32)) + denseFloor, logU(r, 50, 2000), core.Time(r.Int63n(horizon))}
				if bc.wide {
					reqs[i].q, reqs[i].dur = r.IntRange(128, 176)+denseFloor, logU(r, 20, 200)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rq := reqs[i%len(reqs)]
				if _, ok := tr.EarliestFit(rq.q, rq.dur, rq.from); !ok {
					b.Fatalf("no fit for %+v", rq)
				}
			}
		})
	}
}
