package slo

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/stats"
)

// fakeCounters is a hand-cranked cumulative (good, total) source.
type fakeCounters struct {
	good, total atomic.Uint64
}

func (f *fakeCounters) src() (uint64, uint64) { return f.good.Load(), f.total.Load() }

func (f *fakeCounters) add(good, bad uint64) {
	f.good.Add(good)
	f.total.Add(good + bad)
}

// drillSpec is the shape the CI drill uses: second-scale windows so a
// test (or smoke job) can drive transitions in real time — here driven
// entirely by a fake clock.
func drillSpec() Spec {
	return Spec{
		Period:       "1s",
		BudgetWindow: "30s",
		Objectives: []ObjectiveSpec{{
			Name:   "deadline",
			Signal: "deadline_attainment",
			Target: 0.9,
			Rules: []RuleSpec{
				{Severity: "page", Burn: 5, Short: "2s", Long: "6s"},
				{Severity: "warn", Burn: 2, Short: "4s", Long: "10s"},
			},
		}},
	}
}

// newTestEngine builds an engine over drillSpec with a fake clock and
// returns the crank: advance(good, bad) adds events and ticks one
// period.
func newTestEngine(t *testing.T, cfg Config) (*Engine, *fakeCounters, func(good, bad uint64) time.Time) {
	t.Helper()
	if cfg.Spec.Objectives == nil {
		cfg.Spec = drillSpec()
	}
	now := time.Unix(1000, 0)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeCounters{}
	if err := e.Bind("deadline", f.src); err != nil {
		t.Fatal(err)
	}
	e.Tick(now) // baseline
	advance := func(good, bad uint64) time.Time {
		f.add(good, bad)
		now = now.Add(e.Period())
		e.Tick(now)
		return now
	}
	return e, f, advance
}

func sev(t *testing.T, e *Engine, name string) Severity {
	t.Helper()
	for _, st := range e.States() {
		if st.Name == name {
			return st.Severity
		}
	}
	t.Fatalf("objective %q not in States()", name)
	return OK
}

func TestEngineFiresAndClears(t *testing.T) {
	e, _, advance := newTestEngine(t, Config{})
	// Healthy traffic: 100 good/s, no transitions.
	for i := 0; i < 12; i++ {
		advance(100, 0)
		if got := sev(t, e, "deadline"); got != OK {
			t.Fatalf("healthy traffic drove severity to %v", got)
		}
	}
	// All-bad traffic: errFrac 1.0, burn 10× (budget 0.1) — past the
	// page rule once both 2s and 6s windows are saturated.
	for i := 0; i < 7; i++ {
		advance(0, 100)
	}
	if got := sev(t, e, "deadline"); got != SevPage {
		t.Fatalf("sustained bad traffic: severity %v, want page", got)
	}
	if w := e.Warning(); !strings.Contains(w, "deadline") || !strings.Contains(w, "page") {
		t.Fatalf("Warning() = %q, want it to name the paging objective", w)
	}
	var paged State
	for _, st := range e.States() {
		if st.Name == "deadline" {
			paged = st
		}
	}
	if paged.BurnMax < 5 {
		t.Fatalf("BurnMax %v while paging at burn threshold 5", paged.BurnMax)
	}
	if paged.Attainment > 0.9 {
		t.Fatalf("Attainment %v after sustained bad traffic", paged.Attainment)
	}
	// Recovery: good traffic drains the short window first (multi-window
	// reset), and eventually the warn windows too.
	for i := 0; i < 30; i++ {
		advance(100, 0)
	}
	if got := sev(t, e, "deadline"); got != OK {
		t.Fatalf("after recovery: severity %v, want ok", got)
	}
	if w := e.Warning(); w != "" {
		t.Fatalf("Warning() = %q after recovery, want empty", w)
	}
}

func TestEngineShortWindowResetsBeforeLong(t *testing.T) {
	e, _, advance := newTestEngine(t, Config{})
	for i := 0; i < 7; i++ {
		advance(0, 100)
	}
	if got := sev(t, e, "deadline"); got != SevPage {
		t.Fatalf("severity %v, want page", got)
	}
	// A couple of good periods drain the 2s short window below the page
	// threshold while the 6s long window still carries the burn: the
	// page must clear (down to warn — the warn rule's 4s short window
	// is still hot) long before the long window drains.
	advance(100, 0)
	advance(100, 0)
	advance(100, 0)
	if got := sev(t, e, "deadline"); got == SevPage {
		t.Fatal("page still firing after the short window drained — multi-window reset broken")
	}
}

func TestEngineZeroTrafficNeverPages(t *testing.T) {
	e, _, advance := newTestEngine(t, Config{})
	for i := 0; i < 20; i++ {
		advance(0, 0)
	}
	states := e.States()
	if states[0].Severity != OK || states[0].Attainment != 1 || states[0].BudgetRemaining != 1 {
		t.Fatalf("zero traffic: %+v, want ok/1/1", states[0])
	}
	if states[0].BurnMax != 0 {
		t.Fatalf("zero traffic BurnMax = %v, want 0", states[0].BurnMax)
	}
}

func TestEngineTransitionsJournaledAndCallback(t *testing.T) {
	j := flight.NewJournal(64, nil)
	var calls []string
	cfg := Config{
		Journal: j,
		OnAlert: func(objective string, from, to Severity, burn float64) {
			calls = append(calls, objective+":"+from.String()+"->"+to.String())
		},
	}
	e, _, advance := newTestEngine(t, cfg)
	for i := 0; i < 7; i++ {
		advance(0, 100)
	}
	if got := sev(t, e, "deadline"); got != SevPage {
		t.Fatalf("severity %v, want page", got)
	}
	for i := 0; i < 30; i++ {
		advance(100, 0)
	}
	if len(calls) < 2 {
		t.Fatalf("OnAlert calls %v, want at least fire+clear", calls)
	}
	if calls[len(calls)-1] != "deadline:warn->ok" && calls[len(calls)-1] != "deadline:page->ok" {
		t.Fatalf("last transition %q, want a clear to ok", calls[len(calls)-1])
	}
	if j.SubsysCount("slo", flight.Error) == 0 {
		t.Fatal("page transition not journaled at error severity")
	}
	var found bool
	for _, ev := range j.Tail(0) {
		if ev.Subsys != "slo" || ev.Msg != "slo alert state changed" {
			continue
		}
		for _, kv := range ev.KV {
			if kv.K == "to" && kv.V == "page" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no journal event records the transition to page")
	}
}

func TestEngineAlertPublishedAfterDelivery(t *testing.T) {
	// Capture-then-publish: while the journal entry is written and OnAlert
	// runs (resdsrv captures the page bundle there), every reader still
	// sees the old severity; the new one is visible once Tick returns.
	j := flight.NewJournal(64, nil)
	var e *Engine
	var delivered []Severity
	cfg := Config{
		Journal: j,
		OnAlert: func(objective string, from, to Severity, burn float64) {
			delivered = append(delivered, to)
			if got := sev(t, e, objective); got != from {
				t.Errorf("OnAlert(%s->%s): States() already shows %s", from, to, got)
			}
			if w := e.Warning(); (from == OK) != (w == "") {
				t.Errorf("OnAlert(%s->%s): Warning() = %q, want the old state", from, to, w)
			}
			if n := len(j.Tail(0)); n != len(delivered) {
				t.Errorf("OnAlert(%s->%s): %d transitions journaled, want %d", from, to, n, len(delivered))
			}
		},
	}
	e, _, advance := newTestEngine(t, cfg)
	step := func(good, bad uint64) {
		before := len(delivered)
		advance(good, bad)
		if len(delivered) > before {
			if want, got := delivered[len(delivered)-1], sev(t, e, "deadline"); got != want {
				t.Fatalf("Tick delivered %s, States() shows %s after it returned", want, got)
			}
		}
	}
	for i := 0; i < 7; i++ {
		step(0, 100)
	}
	if got := sev(t, e, "deadline"); got != SevPage {
		t.Fatalf("sustained bad traffic: severity %v, want page", got)
	}
	for i := 0; i < 30; i++ {
		step(100, 0)
	}
	if got := sev(t, e, "deadline"); got != OK || len(delivered) < 2 {
		t.Fatalf("after recovery: severity %v, transitions %v; want ok after fire+clear", got, delivered)
	}
}

func TestEngineOverlappingTicks(t *testing.T) {
	// Tick is exported, so ticks may overlap while a transition is being
	// delivered. Once they have all returned, the published state must be
	// the decided one: further ticks under the same traffic deliver
	// nothing new and States shows the page.
	var mu sync.Mutex
	var delivered []Severity
	e, err := New(Config{Spec: drillSpec(), OnAlert: func(_ string, _, to Severity, _ float64) {
		mu.Lock()
		delivered = append(delivered, to)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeCounters{}
	if err := e.Bind("deadline", f.src); err != nil {
		t.Fatal(err)
	}
	var clock atomic.Int64
	clock.Store(time.Unix(1000, 0).UnixNano())
	tick := func() {
		f.add(0, 100)
		e.Tick(time.Unix(0, clock.Add(int64(e.Period()))))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tick()
				_ = e.States()
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 7; i++ {
		tick()
	}
	mu.Lock()
	n := len(delivered)
	mu.Unlock()
	for i := 0; i < 7; i++ {
		tick()
	}
	if got := sev(t, e, "deadline"); got != SevPage {
		t.Fatalf("severity %v after sustained bad traffic, want page (delivered %v)", got, delivered)
	}
	if len(delivered) != n {
		t.Fatalf("steady page traffic delivered more transitions: %v", delivered[n:])
	}
}

func TestEngineMetricsFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	e, _, advance := newTestEngine(t, Config{Registry: reg})
	for i := 0; i < 7; i++ {
		advance(0, 100)
	}
	want := map[string]bool{
		"resd_slo_attainment":              false,
		"resd_slo_error_budget_remaining":  false,
		"resd_slo_burn_rate":               false,
		"resd_slo_alert_state":             false,
		"resd_slo_alert_transitions_total": false,
	}
	var alertState float64
	for _, s := range reg.Gather() {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
		if s.Name == "resd_slo_alert_state" {
			alertState = s.Value
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("family %s not exposed", name)
		}
	}
	if alertState != 2 {
		t.Errorf("resd_slo_alert_state = %v while paging, want 2", alertState)
	}
	if got := sev(t, e, "deadline"); got != SevPage {
		t.Fatalf("severity %v, want page", got)
	}
}

func TestEngineTrackHistogramWindowedQuantiles(t *testing.T) {
	reg := obs.NewRegistry()
	spec := drillSpec()
	e, err := New(Config{Spec: spec, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeCounters{}
	if err := e.Bind("deadline", f.src); err != nil {
		t.Fatal(err)
	}
	var hist obs.Histogram
	if err := e.TrackHistogram("resd_slack_ticks", hist.Snapshot); err != nil {
		t.Fatal(err)
	}
	if err := e.TrackHistogram("resd_slack_ticks", hist.Snapshot); err == nil {
		t.Fatal("double TrackHistogram accepted")
	}
	now := time.Unix(2000, 0)
	e.Tick(now)
	// Early era: large slacks. Then a long quiet era, then small slacks.
	// The windowed p99 must forget the early era once it ages out of the
	// 30s budget window — the thing the process-lifetime summary cannot do.
	for i := 0; i < 100; i++ {
		hist.Observe(1 << 20)
	}
	now = now.Add(time.Second)
	e.Tick(now)
	if v, n, ok := e.WindowQuantile("resd_slack_ticks", 0.99); !ok || n != 100 || v < 1<<20 {
		t.Fatalf("early era: v=%d n=%d ok=%v, want p99 >= 2^20 over 100 samples", v, n, ok)
	}
	for i := 0; i < 40; i++ {
		now = now.Add(time.Second)
		e.Tick(now)
	}
	for i := 0; i < 100; i++ {
		hist.Observe(3)
	}
	now = now.Add(time.Second)
	e.Tick(now)
	v, n, ok := e.WindowQuantile("resd_slack_ticks", 0.99)
	if !ok || n != 100 || v >= 1<<20 {
		t.Fatalf("late era: v=%d n=%d ok=%v, want the early era aged out", v, n, ok)
	}
	var sawWindowFamily bool
	for _, s := range reg.Gather() {
		if s.Name == "resd_slack_ticks_window" || s.Name == "resd_slack_ticks_window_count" {
			sawWindowFamily = true
		}
	}
	if !sawWindowFamily {
		t.Fatal("resd_slack_ticks_window family not exposed")
	}
}

func TestEngineStartStopLifecycle(t *testing.T) {
	spec := drillSpec()
	spec.Period = "10ms"
	spec.BudgetWindow = "1s"
	spec.Objectives[0].Rules = []RuleSpec{{Severity: "page", Burn: 2, Short: "50ms", Long: "200ms"}}
	e, err := New(Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Fatal("Start accepted an unbound objective")
	}
	f := &fakeCounters{}
	if err := e.Bind("deadline", f.src); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
	f.add(0, 1000)
	deadline := time.Now().Add(5 * time.Second)
	for sevNow := OK; sevNow != SevPage; {
		if time.Now().After(deadline) {
			t.Fatal("background ticker never drove the alert to page")
		}
		time.Sleep(20 * time.Millisecond)
		sevNow = sev(t, e, "deadline")
	}
	e.Stop()
	e.Stop() // idempotent
}

func TestEngineBindErrors(t *testing.T) {
	e, err := New(Config{Spec: drillSpec()})
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeCounters{}
	if err := e.Bind("nope", f.src); err == nil {
		t.Fatal("Bind of unknown objective accepted")
	}
	if err := e.Bind("deadline", f.src); err != nil {
		t.Fatal(err)
	}
	if err := e.Bind("deadline", f.src); err == nil {
		t.Fatal("double Bind accepted")
	}
}

func TestSlackGoodBucketSemantics(t *testing.T) {
	// The slack objective counts a sample good when its whole bucket is
	// ≤ bound; GoodBuckets is the helper resd uses to turn a bound into
	// a cumulative good count.
	var h obs.Histogram
	h.Observe(3)    // bucket upper 3
	h.Observe(100)  // bucket upper 127
	h.Observe(5000) // bucket upper 8191
	var snap [stats.ExpBuckets]uint64
	total := h.Snapshot(&snap)
	if total != 3 {
		t.Fatalf("total %d, want 3", total)
	}
	if g := GoodUnderBound(&snap, 127); g != 2 {
		t.Fatalf("GoodUnderBound(127) = %d, want 2", g)
	}
	if g := GoodUnderBound(&snap, 126); g != 1 {
		t.Fatalf("GoodUnderBound(126) = %d, want 1 (bucket 127 not wholly under)", g)
	}
	if g := GoodUnderBound(&snap, 1<<62); g != 3 {
		t.Fatalf("GoodUnderBound(huge) = %d, want 3", g)
	}
}
