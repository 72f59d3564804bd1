package main

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/resd"
)

func TestStatsDelta(t *testing.T) {
	before := []resd.ShardStats{
		{Admitted: 10, Rejected: 1, RejectedDeadline: 2, Cancelled: 3, Batches: 4, Ops: 20},
		{Admitted: 5, RejectedQuota: 1, Batches: 2, Ops: 6},
	}
	after := []resd.ShardStats{
		{Admitted: 15, Rejected: 1, RejectedDeadline: 5, Cancelled: 7, Batches: 6, Ops: 32},
		{Admitted: 9, RejectedQuota: 3, Batches: 5, Ops: 14},
	}
	d := statsDelta(before, after)
	want := statTotals{admitted: 9, rejDeadline: 3, rejQuota: 2, cancelled: 4, batches: 5, ops: 20}
	if d != want {
		t.Fatalf("statsDelta = %+v, want %+v", d, want)
	}
	if got := d.tries(); got != 14 {
		t.Errorf("tries = %d, want 14", got)
	}
}

func TestClosedLoopStopsOnTime(t *testing.T) {
	const d = 100 * time.Millisecond
	var mu sync.Mutex
	var last time.Time
	t0 := time.Now()
	ts := closedLoop(4, d, func(c int, tl *tally) {
		mu.Lock()
		last = time.Now()
		mu.Unlock()
		time.Sleep(time.Millisecond)
		tl.opResult(opQuery, nil, time.Millisecond)
	})
	el := time.Since(t0)
	if el < d {
		t.Errorf("loop returned after %v, before its %v", el, d)
	}
	// A step starts only while time remains; allow the scheduler a
	// generous margin on a loaded machine.
	if late := last.Sub(t0) - d; late > 50*time.Millisecond {
		t.Errorf("a step started %v after time ran out", late)
	}
	if len(ts) != 4 {
		t.Fatalf("%d tallies, want one per caller", len(ts))
	}
	for c, tl := range ts {
		if tl.attempted() == 0 {
			t.Errorf("caller %d made no calls", c)
		}
	}
}

func TestClosedLoopCountsErrorsApartFromRejections(t *testing.T) {
	outcomes := []error{nil, resd.ErrDeadline, resd.ErrNeverFits, resd.ErrQuota,
		fmt.Errorf("wire: %w", errors.New("connection reset")), fmt.Errorf("remote: %w", resd.ErrDeadline)}
	req := resd.Request{Ready: 10, Q: 1, Dur: 5, Deadline: 20}
	calls := 0
	ts := closedLoop(1, 20*time.Millisecond, func(c int, tl *tally) {
		err := outcomes[calls%len(outcomes)]
		res := resd.Reservation{Start: 10}
		if calls%12 == 6 {
			res.Start = 21 // admitted past its deadline
		}
		tl.admitResult(req, res, err, time.Microsecond)
		calls++
	})
	tl := ts[0]
	want := make([]uint64, len(outcomes))
	var late uint64
	for i := range calls {
		want[i%len(outcomes)]++
		if i%12 == 6 {
			late++
		}
	}
	if tl.admitted != want[0] || tl.rejDeadline != want[1]+want[5] || tl.rejCapacity != want[2] ||
		tl.rejQuota != want[3] || tl.failed != want[4] {
		t.Errorf("tally %+v after %d calls, want admitted %d, deadline %d, capacity %d, quota %d, failed %d",
			*tl, calls, want[0], want[1]+want[5], want[2], want[3], want[4])
	}
	if tl.decisions() != uint64(calls)-want[4] {
		t.Errorf("%d decisions, want %d: only hard failures have no latency", tl.decisions(), uint64(calls)-want[4])
	}
	if tl.attempted() != uint64(calls) {
		t.Errorf("%d attempted, want %d", tl.attempted(), calls)
	}
	if tl.badStart != late {
		t.Errorf("%d bad starts, want %d", tl.badStart, late)
	}
}

func TestStamperUnique(t *testing.T) {
	var s stamper
	now := time.Now()
	const workers, each = 4, 1000
	out := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				out[w] = append(out[w], s.next(now))
			}
		}()
	}
	wg.Wait()
	seen := map[int64]bool{}
	for _, o := range out {
		for i, v := range o {
			if seen[v] {
				t.Fatalf("stamp %d handed out twice", v)
			}
			seen[v] = true
			if i > 0 && v <= o[i-1] {
				t.Fatalf("stamps not increasing within one caller: %d after %d", v, o[i-1])
			}
		}
	}
}
