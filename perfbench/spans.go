package main

import (
	"slices"
	"time"

	"repro/internal/resd"
)

// span is one timed interval of a request's path through the layers.
// Spans of one request share Req; Parent is the ID of the span that
// caused it (0 for the root). Start and End are wall-clock unix
// nanoseconds, the clock both sides of an in-process loopback share.
type span struct {
	Req        int64
	ID, Parent int
	Name       string
	Start, End int64
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is the part of parent's interval that none of its children
// covers: its duration minus the union of the children, each clipped to
// the parent. Overlapping children are counted once.
func selfTime(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return parent.dur() - covered
}

// callRecord is the caller's view of one admission: the unique send
// stamp it put on the request (the join key), its wall-clock return
// instant, and its monotonic latency.
type callRecord struct {
	Stamp, Return int64
	Latency       time.Duration
}

// admitSpans joins one sampled resd.TraceRecord to the call that caused
// it and returns the request's span tree. wire names the outer stages:
// over reswire the first and last legs are the wire's send and reply,
// in process they are the bare call and return.
func admitSpans(c callRecord, tr resd.TraceRecord, wire bool) []span {
	arr := tr.Arrival.UnixNano()
	at := func(d time.Duration) int64 { return arr + int64(d) }
	send, reply := "client.call", "client.return"
	if wire {
		send, reply = "reswire.send", "reswire.reply"
	}
	r := c.Stamp
	return []span{
		{r, 1, 0, "admit", c.Stamp, c.Return},
		{r, 2, 1, send, c.Stamp, arr},
		{r, 3, 1, "resd.admit", arr, at(tr.Decision)},
		{r, 4, 3, "resd.route", arr, at(tr.Route)},
		{r, 5, 3, "resd.dispatch", at(tr.Route), at(tr.Enqueue)},
		{r, 6, 3, "resd.queue_wait", at(tr.Enqueue), at(tr.BatchStart)},
		{r, 7, 3, "resd.turn", at(tr.BatchStart), at(tr.Decision)},
		{r, 8, 1, reply, at(tr.Decision), c.Return},
	}
}

// traceKey recovers the caller's send stamp from a sampled record:
// resd stores it as the span from the stamp to Arrival.
func traceKey(tr resd.TraceRecord) int64 {
	return tr.Arrival.UnixNano() - int64(tr.ClientSend)
}

// spanStats folds joined span trees into per-name durations and self
// times, and checks each tree's shape.
type spanStats struct {
	dur, self map[string][]int64
	joined    int
	// contained counts trees whose every span lies inside its parent;
	// summed counts trees whose leaf spans add up to the caller's
	// monotonic latency within sumTolerance.
	contained, summed int
}

// sumTolerance is how far the leaf spans of one admission may add up
// away from the latency its caller measured: 1 µs plus 1 %.
func sumTolerance(lat time.Duration) int64 { return 1000 + int64(lat)/100 }

func newSpanStats() *spanStats {
	return &spanStats{dur: map[string][]int64{}, self: map[string][]int64{}}
}

func (st *spanStats) add(spans []span, lat time.Duration) {
	st.joined++
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	ok := true
	var leafSum int64
	for _, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], s.dur())
		st.self[s.Name] = append(st.self[s.Name], selfTime(s, kids[s.ID]))
		if p, has := byID[s.Parent]; has && (s.Start < p.Start || s.End > p.End) {
			ok = false
		}
		if len(kids[s.ID]) == 0 {
			leafSum += s.dur()
		}
	}
	if ok {
		st.contained++
	}
	if d := leafSum - int64(lat); d <= sumTolerance(lat) && -d <= sumTolerance(lat) {
		st.summed++
	}
}

// pctl returns percentile p of one span name's durations (self=false)
// or self times (self=true), in microseconds.
func (st *spanStats) pctl(name string, p float64, self bool) float64 {
	src := st.dur
	if self {
		src = st.self
	}
	return float64(pctl(sorted(src[name]), p)) / 1e3
}
