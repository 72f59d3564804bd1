package main

import (
	"testing"
	"time"

	"repro/internal/resd"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 50},  // overlaps the first: [10,50) counts once
		{Start: 25, End: 35},  // nested inside both
		{Start: 60, End: 70},  // disjoint
		{Start: 90, End: 120}, // runs past the parent: clipped to [90,100)
		{Start: -5, End: 0},   // outside the parent: ignored
	}
	// Covered: [10,50) + [60,70) + [90,100) = 60 of 100.
	if got := selfTime(parent, kids); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	full := []span{{Start: 0, End: 60}, {Start: 40, End: 100}}
	if got := selfTime(parent, full); got != 0 {
		t.Errorf("selfTime fully covered = %d, want 0", got)
	}
}

func TestJoinTraceToCall(t *testing.T) {
	send := time.Unix(0, 1_000_000_000)
	arrival := send.Add(30 * time.Microsecond)
	tr := resd.TraceRecord{
		Arrival: arrival, ClientSend: arrival.Sub(send),
		Route: time.Microsecond, Enqueue: 2 * time.Microsecond,
		BatchStart: 10 * time.Microsecond, Decision: 50 * time.Microsecond,
	}
	if got := traceKey(tr); got != send.UnixNano() {
		t.Fatalf("traceKey = %d, want the send stamp %d", got, send.UnixNano())
	}
	ret := arrival.Add(50*time.Microsecond + 20*time.Microsecond)
	call := callRecord{Stamp: send.UnixNano(), Return: ret.UnixNano(), Latency: ret.Sub(send)}
	other := callRecord{Stamp: send.UnixNano() + 1, Return: ret.UnixNano(), Latency: time.Second}
	ss := joinTraces([]resd.TraceRecord{tr}, []callRecord{other, call}, true)
	if ss.joined != 1 || ss.contained != 1 || ss.summed != 1 {
		t.Fatalf("joined %d, contained %d, summed %d; want 1 each", ss.joined, ss.contained, ss.summed)
	}
	for name, want := range map[string]float64{
		"reswire.send": 30, "resd.route": 1, "resd.dispatch": 1, "resd.queue_wait": 8,
		"resd.turn": 40, "reswire.reply": 20, "resd.admit": 50, "admit": 100,
	} {
		if got := ss.pctl(name, 50, false); got != want {
			t.Errorf("%s = %g us, want %g", name, got, want)
		}
	}
	if got := ss.pctl("admit", 50, true); got != 0 {
		t.Errorf("admit self time = %g us, want 0: the stages tile the call", got)
	}

	// A call whose latency disagrees with its stamps fails the sum check.
	call.Latency = 2 * call.Latency
	if ss := joinTraces([]resd.TraceRecord{tr}, []callRecord{call}, true); ss.summed != 0 {
		t.Errorf("summed = %d for a latency twice the stages, want 0", ss.summed)
	}
}
