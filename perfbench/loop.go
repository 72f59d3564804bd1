package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resd"
)

// opKind names the operations a caller issues.
type opKind int

const (
	opAdmit opKind = iota
	opCancel
	opQuery
	nOps
)

// latencies is a measured phase's latency record, shared by its
// callers: one histogram per operation over the whole phase, and one of
// admissions per window of the phase.
type latencies struct {
	start time.Time
	win   time.Duration
	ops   [nOps]hist
	admit []hist // per window; completions past the last window are not kept
}

// window is the length of the phase's sub-windows.
const window = time.Second

func newLatencies(d time.Duration) *latencies {
	win := min(window, d)
	return &latencies{start: time.Now(), win: win, admit: make([]hist, max(int(d/win), 1))}
}

func (l *latencies) record(k opKind, done time.Time, lat time.Duration) {
	l.ops[k].observe(int64(lat))
	if k == opAdmit {
		if w := int(done.Sub(l.start) / l.win); w < len(l.admit) {
			l.admit[w].observe(int64(lat))
		}
	}
}

// windowed returns, per window, the admission decisions per second and
// the p50 and p99 latencies in µs. It fails when a window's p99 would
// rest on fewer than minBeyond samples.
func (l *latencies) windowed() (ops, p50, p99 []float64, err error) {
	for w := range l.admit {
		h := &l.admit[w]
		n := h.count()
		if p := tailPct(int(n)); p < 99 {
			return nil, nil, nil, fmt.Errorf("window %d holds %d admissions: too few for a p99 with %d beyond it (p%g)", w, n, minBeyond, p)
		}
		ops = append(ops, float64(n)/l.win.Seconds())
		p50 = append(p50, h.quantile(50)/1e3)
		p99 = append(p99, h.quantile(99)/1e3)
	}
	return ops, p50, p99, nil
}

// tally is one caller's record of a measured phase: counts are the
// caller's own, latencies go to the phase's shared record.
type tally struct {
	lat *latencies
	n   [nOps]uint64 // answered operations; admissions include rejections
	// Admission outcomes. A rejection is an answer; failed counts hard
	// failures (transport errors, unknown IDs, closed service) of any op.
	admitted, rejDeadline, rejCapacity, rejQuota uint64
	failed                                       uint64
	// badStart counts admissions whose start lies before the request's
	// ready time or after its deadline.
	badStart uint64
	calls    []callRecord // per admission, when the phase is traced
}

func (t *tally) attempted() uint64 { return t.answered() + t.failed }

func (t *tally) answered() uint64 { return t.n[opAdmit] + t.n[opCancel] + t.n[opQuery] }

// decisions counts answered admissions: admitted plus rejected.
func (t *tally) decisions() uint64 { return t.n[opAdmit] }

func (t *tally) merge(o *tally) {
	t.lat = o.lat
	for k := range t.n {
		t.n[k] += o.n[k]
	}
	t.admitted += o.admitted
	t.rejDeadline += o.rejDeadline
	t.rejCapacity += o.rejCapacity
	t.rejQuota += o.rejQuota
	t.failed += o.failed
	t.badStart += o.badStart
	t.calls = append(t.calls, o.calls...)
}

// admitResult records one Admit answer. It reports whether the request
// was admitted; every outcome but a hard failure is a decision whose
// latency counts.
func (t *tally) admitResult(req resd.Request, res resd.Reservation, err error, lat time.Duration) bool {
	switch {
	case err == nil:
		t.admitted++
		if res.Start < req.Ready || res.Start > req.Deadline {
			t.badStart++
		}
	case errors.Is(err, resd.ErrDeadline):
		t.rejDeadline++
	case errors.Is(err, resd.ErrNeverFits):
		t.rejCapacity++
	case errors.Is(err, resd.ErrQuota):
		t.rejQuota++
	default:
		t.failed++
		return false
	}
	t.n[opAdmit]++
	t.lat.record(opAdmit, time.Now(), lat)
	return err == nil
}

// opResult records a Cancel or Query: any error is a failure.
func (t *tally) opResult(k opKind, err error, lat time.Duration) {
	if err != nil {
		t.failed++
		return
	}
	t.n[k]++
	t.lat.record(k, time.Now(), lat)
}

// closedLoop runs callers concurrently, each calling step back to back
// until d has passed: a caller sends its next request only once the
// previous one has returned. It returns each caller's tally. A step in
// flight when time runs out completes and is counted.
func closedLoop(callers int, d time.Duration, step func(caller int, t *tally)) []*tally {
	var stop atomic.Bool
	lat := newLatencies(d)
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	defer timer.Stop()
	out := make([]*tally, callers)
	var wg sync.WaitGroup
	for c := range out {
		out[c] = &tally{lat: lat}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				step(c, out[c])
			}
		}(c)
	}
	wg.Wait()
	return out
}

// stamper hands out strictly increasing wall-clock stamps, so every
// request's send stamp is unique and a sampled trace joins to exactly
// one call.
type stamper struct{ last atomic.Int64 }

func (s *stamper) next(now time.Time) int64 {
	t := now.UnixNano()
	for {
		last := s.last.Load()
		if t <= last {
			t = last + 1
		}
		if s.last.CompareAndSwap(last, t) {
			return t
		}
	}
}
