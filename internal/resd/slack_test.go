package resd

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestSlackHist(t *testing.T) {
	var h slackHist
	if h.p99() != 0 {
		t.Fatalf("empty hist p99 = %v", h.p99())
	}
	h.add(0)
	if h.p99() != 0 {
		t.Fatalf("all-zero hist p99 = %v", h.p99())
	}
	// One large sample among fifty zeros is ~2% of the stream: the p99
	// rank lands on it.
	for i := 0; i < 49; i++ {
		h.add(0)
	}
	h.add(1000) // bucket 10: [512, 1024)
	if got := h.p99(); got != 1023 {
		t.Fatalf("p99 = %v, want 1023 (bucket upper bound)", got)
	}
	// A much rarer outlier — one in several hundred — stays below the p99
	// rank and must not be reported.
	for i := 0; i < 450; i++ {
		h.add(0)
	}
	if got := h.p99(); got != 0 {
		t.Fatalf("p99 with a sub-1%% outlier = %v, want 0", got)
	}
	// The estimate brackets the truth: at least the true p99, under 2×.
	var g slackHist
	for i := 0; i < 100; i++ {
		g.add(5)
	}
	if got := g.p99(); got < 5 || got > 11 {
		t.Fatalf("p99 of constant 5 = %v, want within [5, 2·5+1]", got)
	}
	if bucketUpper(64) != core.Infinity {
		t.Fatalf("top bucket upper = %v", bucketUpper(64))
	}
}

// TestSlackStatsSurfaces checks the SLO metric end to end in-process: an
// admission pushed back by a full window records its slack, and both the
// shard-level and per-tenant p99 surfaces report it.
func TestSlackStatsSurfaces(t *testing.T) {
	s := mustNew(t, Config{M: 8})
	if _, err := s.Admit(Request{Tenant: "acme", Ready: 0, Q: 8, Dur: 10, Deadline: NoDeadline}); err != nil { // slack 0
		t.Fatal(err)
	}
	r2, err := s.Admit(Request{Tenant: "acme", Ready: 0, Q: 8, Dur: 10, Deadline: NoDeadline}) // pushed to start 10: slack 10
	if err != nil {
		t.Fatal(err)
	}
	if r2.Start != 10 {
		t.Fatalf("second admission starts at %v, want 10", r2.Start)
	}
	// Slack 10 lives in bucket 4 ([8,16)), whose upper bound is 15; two
	// samples put the p99 rank on the larger one.
	if got := s.Stats()[0].SlackP99; got != 15 {
		t.Fatalf("ShardStats.SlackP99 = %v, want 15", got)
	}
	ts, err := s.TenantStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts["acme"].SlackP99; got != 15 {
		t.Fatalf("TenantStats.SlackP99 = %v, want 15", got)
	}
	tot, err := s.TenantTotals()
	if err != nil {
		t.Fatal(err)
	}
	if got := tot["acme"].SlackP99; got != 15 {
		t.Fatalf("TenantTotals SlackP99 = %v, want 15", got)
	}
}

// TestSlackSummaryCountAfterRestart pins the resd_slack_ticks summary to
// the histogram it summarises. WAL replay restores each shard's admitted
// counter, but the slack histogram restarts empty, so after a restart
// the summary's _count must be the admissions this process observed —
// the samples behind its quantiles — not resd_admitted_total.
func TestSlackSummaryCountAfterRestart(t *testing.T) {
	const before, after = 40, 24
	admit := func(s *Service, n int) {
		for i := 0; i < n; i++ {
			if _, err := s.Admit(Request{Ready: core.Time(3 * i), Q: 2, Dur: 5, Deadline: NoDeadline}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := walConfig("tree", t.TempDir(), 0)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	admit(s, before)
	s.Close()

	reg := obs.NewRegistry()
	cfg.Obs = &ObsConfig{Registry: reg}
	s = mustNew(t, cfg)
	restored := s.Stats()
	admit(s, after)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]float64{}
	for _, smp := range exp.Family("resd_slack_ticks").Samples {
		if smp.Name == "resd_slack_ticks_count" {
			counts[smp.Labels["shard"]] = smp.Value
		}
	}
	var restoredTotal uint64
	var sum float64
	for i, st := range s.Stats() {
		restoredTotal += restored[i].Admitted
		got, ok := counts[strconv.Itoa(i)]
		if want := st.Admitted - restored[i].Admitted; !ok || got != float64(want) {
			t.Errorf("shard %d: resd_slack_ticks_count = %v (present %v), want %d post-restart admissions", i, got, ok, want)
		}
		sum += got
	}
	if restoredTotal != before {
		t.Fatalf("replay restored %d admissions, want %d", restoredTotal, before)
	}
	if sum != after {
		t.Errorf("resd_slack_ticks_count sums to %v, want %d", sum, after)
	}
}
