package slo

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/stats"
)

// CounterSource reads the cumulative (good, total) event counts for one
// objective. Sources are read at every engine tick and must be cheap
// and lock-free — in resd they sum published shard atomics, exactly
// like a /metrics scrape.
type CounterSource func() (good, total uint64)

// HistSource snapshots a cumulative exponential-histogram bucket vector
// (obs.Histogram.Snapshot shape) and returns the total. Same contract
// as CounterSource: read per tick, must never touch an event loop.
type HistSource func(dst *[stats.ExpBuckets]uint64) (total uint64)

// Config parameterises New.
type Config struct {
	// Spec declares the objectives; it is validated by New.
	Spec Spec
	// Registry, when non-nil, receives the resd_slo_* metric families.
	Registry *obs.Registry
	// Journal, when non-nil, receives alert-state transitions as
	// structured events (subsys "slo").
	Journal *flight.Journal
	// OnAlert, when non-nil, is invoked (outside the engine lock, on
	// the tick goroutine) after every alert-state transition. resdsrv
	// uses it to capture a rate-limited diagnostic bundle on page.
	OnAlert func(objective string, from, to Severity, burn float64)
	// Now is the clock (tests inject a fake one; "" = time.Now). Ticks
	// stamp ring snapshots with Now().UnixNano().
	Now func() time.Time
}

// windowBurn is one evaluated window's burn rate, kept for the
// resd_slo_burn_rate{objective,window} gauge.
type windowBurn struct {
	label  string
	window time.Duration
	burn   float64
}

// objState is one objective's runtime state, guarded by Engine.mu.
type objState struct {
	o    Objective
	src  CounterSource
	ring *stats.SnapRing // width 2: cumulative [good, total]

	sev         Severity // published alert state
	next        Severity // decided alert state, ahead of sev while delivering
	attainment  float64  // good fraction over the budget window
	budget      float64  // error budget remaining over the budget window
	burnMax     float64
	burns       []windowBurn
	transitions uint64
}

// histState is one tracked histogram: a ring of cumulative bucket
// snapshots answering windowed percentiles (the fix for the
// process-lifetime-only caveat on resd's slack and loop-turn series).
type histState struct {
	name string
	src  HistSource
	ring *stats.SnapRing // width stats.ExpBuckets
}

// Engine evaluates SLO objectives: every Period it snapshots each bound
// source into a stats.SnapRing, derives per-window (good, total) deltas,
// and runs the multi-window multi-burn-rate rules. It owns no
// measurement of its own — everything it knows comes from the cumulative
// counters the service already publishes, so arming an engine adds no
// work to any event loop.
//
// Lifecycle: New validates the spec and registers the metric families;
// the embedding service binds a CounterSource per objective (Bind) and
// any windowed histograms (TrackHistogram), then calls Start. resd.New
// does all three when ObsConfig.SLO is set, and Service.Close stops the
// engine.
type Engine struct {
	res     resolved
	reg     *obs.Registry
	journal *flight.Journal
	onAlert func(objective string, from, to Severity, burn float64)
	now     func() time.Time

	mu      sync.Mutex
	objs    []*objState
	hists   []*histState
	started bool
	stopped bool
	stop    chan struct{}
	done    chan struct{}

	vec2    []uint64
	bucketv [stats.ExpBuckets]uint64
}

// New builds an engine from cfg, validating the spec and registering
// the resd_slo_* families on cfg.Registry. The engine is inert until
// Start.
func New(cfg Config) (*Engine, error) {
	res, err := cfg.Spec.normalize()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		res:     res,
		reg:     cfg.Registry,
		journal: cfg.Journal,
		onAlert: cfg.OnAlert,
		now:     cfg.Now,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		vec2:    make([]uint64, 2),
	}
	if e.now == nil {
		e.now = time.Now
	}
	for _, o := range res.objectives {
		slots := int(res.maxWindow()/res.period) + 2
		st := &objState{
			o:          o,
			ring:       stats.NewSnapRing(slots, 2),
			attainment: 1,
			budget:     1,
		}
		for _, w := range o.distinctWindows() {
			st.burns = append(st.burns, windowBurn{label: w.String(), window: w})
		}
		e.objs = append(e.objs, st)
	}
	e.register()
	return e, nil
}

// maxWindow is the longest span any ring must cover.
func (r resolved) maxWindow() time.Duration {
	max := r.budgetWindow
	for _, o := range r.objectives {
		for _, rule := range o.Rules {
			if rule.Long > max {
				max = rule.Long
			}
		}
	}
	return max
}

// distinctWindows lists the objective's rule windows, deduplicated and
// sorted — the windows resd_slo_burn_rate reports.
func (o Objective) distinctWindows() []time.Duration {
	seen := map[time.Duration]bool{}
	var out []time.Duration
	for _, r := range o.Rules {
		for _, w := range []time.Duration{r.Short, r.Long} {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Period returns the snapshot-and-evaluate cadence.
func (e *Engine) Period() time.Duration { return e.res.period }

// BudgetWindow returns the span attainment and budget are reported over.
func (e *Engine) BudgetWindow() time.Duration { return e.res.budgetWindow }

// Objectives returns the validated objectives, for the embedding
// service to bind sources against.
func (e *Engine) Objectives() []Objective {
	out := make([]Objective, len(e.objs))
	for i, st := range e.objs {
		out[i] = st.o
	}
	return out
}

// Bind attaches the cumulative (good, total) source for one objective.
// Every objective must be bound before Start.
func (e *Engine) Bind(objective string, src CounterSource) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return fmt.Errorf("%w: Bind(%q) after Start", ErrConfig, objective)
	}
	for _, st := range e.objs {
		if st.o.Name != objective {
			continue
		}
		if st.src != nil {
			return fmt.Errorf("%w: objective %q bound twice", ErrConfig, objective)
		}
		st.src = src
		return nil
	}
	return fmt.Errorf("%w: Bind(%q): no such objective", ErrConfig, objective)
}

// TrackHistogram routes a cumulative histogram through the snapshot
// ring, making windowed percentiles of it queryable (WindowQuantile)
// and — with a registry — exposed as the summary family name+"_window"
// with quantile labels 0.5/0.9/0.99 and a _count of the observations
// inside the window. Must be called before Start.
func (e *Engine) TrackHistogram(name string, src HistSource) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return fmt.Errorf("%w: TrackHistogram(%q) after Start", ErrConfig, name)
	}
	for _, h := range e.hists {
		if h.name == name {
			return fmt.Errorf("%w: histogram %q tracked twice", ErrConfig, name)
		}
	}
	slots := int(e.res.maxWindow()/e.res.period) + 2
	h := &histState{name: name, src: src, ring: stats.NewSnapRing(slots, stats.ExpBuckets)}
	e.hists = append(e.hists, h)
	e.reg.Collect(obs.KindSummary, name+"_window",
		"Windowed percentiles of "+name+" over the SLO budget window (restart-free, from the snapshot ring).",
		func(em obs.Emitter) {
			e.mu.Lock()
			defer e.mu.Unlock()
			var snap [stats.ExpBuckets]uint64
			span, ok := h.ring.Delta(int64(e.res.budgetWindow), snap[:])
			if !ok || span <= 0 {
				return // no window yet: absent beats zeros pretending to be data
			}
			var total uint64
			for _, n := range snap {
				total += n
			}
			for _, q := range []struct {
				v     float64
				label string
			}{{0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}} {
				em.Emit(float64(stats.ExpQuantileFromBuckets(&snap, total, q.v)), obs.L("quantile", q.label))
			}
			em.EmitSuffix("_count", float64(total))
		})
	return nil
}

// Start checks every objective is bound and launches the tick loop.
func (e *Engine) Start() error {
	e.mu.Lock()
	if e.started || e.stopped {
		e.mu.Unlock()
		return fmt.Errorf("%w: engine started twice or after Stop", ErrConfig)
	}
	for _, st := range e.objs {
		if st.src == nil {
			e.mu.Unlock()
			return fmt.Errorf("%w: objective %q has no bound source", ErrConfig, st.o.Name)
		}
	}
	e.started = true
	e.mu.Unlock()
	e.journal.Record(flight.Info, "slo", -1, "slo engine armed",
		flight.KV{K: "objectives", V: fmt.Sprint(len(e.objs))},
		flight.KV{K: "period", V: e.res.period.String()})
	e.Tick(e.now()) // anchor the baseline snapshot immediately
	go func() {
		defer close(e.done)
		tick := time.NewTicker(e.res.period)
		defer tick.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-tick.C:
				e.Tick(e.now())
			}
		}
	}()
	return nil
}

// Stop ends the tick loop and waits for it. Idempotent; a never-started
// engine stops trivially.
func (e *Engine) Stop() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		<-e.done
		return
	}
	e.stopped = true
	started := e.started
	e.mu.Unlock()
	close(e.stop)
	if !started {
		close(e.done)
	}
	<-e.done
}

// transition is one alert-state change gathered under the lock,
// delivered (journal + OnAlert) outside it, and only then committed.
type transition struct {
	st       *objState
	from, to Severity
	burn     float64
}

// Tick runs one snapshot-and-evaluate pass at the given instant. Start
// drives it at the spec period; tests drive it directly with a fake
// clock. Safe to call concurrently with scrapes and States readers.
//
// A new alert state is captured, then published: the journal entry and
// OnAlert (where resdsrv captures the page bundle) run first, and only
// then does the severity become visible on States, Warning and
// resd_slo_alert_state. A reader that sees a page can rely on its
// evidence already existing; OnAlert itself still sees the old state.
func (e *Engine) Tick(now time.Time) {
	at := now.UnixNano()
	var fired []transition
	e.mu.Lock()
	for _, st := range e.objs {
		if st.src == nil {
			continue
		}
		good, total := st.src()
		e.vec2[0], e.vec2[1] = good, total
		st.ring.Push(at, e.vec2)
	}
	for _, h := range e.hists {
		h.src(&e.bucketv)
		h.ring.Push(at, e.bucketv[:])
	}
	for _, st := range e.objs {
		if st.src == nil {
			continue
		}
		if tr, changed := e.evaluate(st); changed {
			fired = append(fired, tr)
		}
	}
	e.mu.Unlock()
	for _, tr := range fired {
		sev := flight.Info
		switch tr.to {
		case SevWarn:
			sev = flight.Warn
		case SevPage:
			sev = flight.Error
		}
		e.journal.Record(sev, "slo", -1, "slo alert state changed",
			flight.KV{K: "objective", V: tr.st.o.Name},
			flight.KV{K: "from", V: tr.from.String()},
			flight.KV{K: "to", V: tr.to.String()},
			flight.KV{K: "burn", V: fmt.Sprintf("%.2f", tr.burn)})
		if e.onAlert != nil {
			e.onAlert(tr.st.o.Name, tr.from, tr.to, tr.burn)
		}
	}
	if len(fired) == 0 {
		return
	}
	e.mu.Lock()
	for _, tr := range fired {
		// An overlapping Tick may have decided a newer state meanwhile;
		// that state is published when its own delivery completes.
		if tr.st.next == tr.to {
			tr.st.sev = tr.to
		}
		tr.st.transitions++
	}
	e.mu.Unlock()
}

// errFrac answers the bad-event fraction over one trailing window, or
// 0 when the ring cannot answer it or the window saw no traffic — an
// empty window burns no budget and can never page.
func (st *objState) errFrac(window time.Duration) float64 {
	var d [2]uint64
	if _, ok := st.ring.Delta(int64(window), d[:]); !ok {
		return 0
	}
	good, total := d[0], d[1]
	if total == 0 {
		return 0
	}
	if good > total {
		good = total
	}
	return 1 - float64(good)/float64(total)
}

// evaluate recomputes one objective's windows and returns the alert-state
// change, if any. It records the decision in st.next but leaves st.sev
// to Tick, which publishes it after delivering the transition. Caller
// holds e.mu.
func (e *Engine) evaluate(st *objState) (transition, bool) {
	budgetDenom := 1 - st.o.Target
	frac := st.errFrac(e.res.budgetWindow)
	st.attainment = 1 - frac
	st.budget = 1 - frac/budgetDenom
	st.burnMax = 0
	for i := range st.burns {
		st.burns[i].burn = st.errFrac(st.burns[i].window) / budgetDenom
		if st.burns[i].burn > st.burnMax {
			st.burnMax = st.burns[i].burn
		}
	}
	burnAt := func(w time.Duration) float64 {
		for _, wb := range st.burns {
			if wb.window == w {
				return wb.burn
			}
		}
		return 0
	}
	newSev := OK
	for _, rule := range st.o.Rules {
		if burnAt(rule.Short) >= rule.Burn && burnAt(rule.Long) >= rule.Burn && rule.Severity > newSev {
			newSev = rule.Severity
		}
	}
	if newSev == st.next {
		return transition{}, false
	}
	tr := transition{st: st, from: st.next, to: newSev, burn: st.burnMax}
	st.next = newSev
	return tr, true
}

// State is one objective's evaluated condition — what the Watch
// telemetry's SLO family and obscheck -slo consume.
type State struct {
	Name   string
	Tenant string
	Signal Signal
	Target float64
	// Attainment is the good-event fraction over the budget window
	// (1 when the window saw no traffic).
	Attainment float64
	// BudgetRemaining is the unburned fraction of the error budget over
	// the budget window; negative means the budget is overspent.
	BudgetRemaining float64
	// BurnMax is the highest burn rate across the objective's rule
	// windows.
	BurnMax float64
	// Severity is the current alert state.
	Severity Severity
}

// States snapshots every objective's evaluated condition.
func (e *Engine) States() []State {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]State, len(e.objs))
	for i, st := range e.objs {
		out[i] = State{
			Name:            st.o.Name,
			Tenant:          st.o.Tenant,
			Signal:          st.o.Signal,
			Target:          st.o.Target,
			Attainment:      st.attainment,
			BudgetRemaining: st.budget,
			BurnMax:         st.burnMax,
			Severity:        st.sev,
		}
	}
	return out
}

// Warning summarises the non-OK objectives for /healthz, or "" when
// every objective is healthy.
func (e *Engine) Warning() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var parts []string
	for _, st := range e.objs {
		if st.sev != OK {
			parts = append(parts, fmt.Sprintf("slo %s %s (burn %.1fx)", st.o.Name, st.sev, st.burnMax))
		}
	}
	return strings.Join(parts, "; ")
}

// WindowQuantile answers quantile q of a tracked histogram over the
// budget window: the windowed percentile the process-lifetime summary
// cannot give. ok is false until the ring holds a window.
func (e *Engine) WindowQuantile(name string, q float64) (v int64, n uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, h := range e.hists {
		if h.name != name {
			continue
		}
		var snap [stats.ExpBuckets]uint64
		if _, ok := h.ring.Delta(int64(e.res.budgetWindow), snap[:]); !ok {
			return 0, 0, false
		}
		var total uint64
		for _, c := range snap {
			total += c
		}
		return stats.ExpQuantileFromBuckets(&snap, total, q), total, true
	}
	return 0, 0, false
}

// GoodUnderBound counts the samples in an exponential-histogram bucket
// snapshot that are certainly ≤ bound: the buckets whose upper bound
// fits under it. This is how a slack objective's CounterSource turns
// obs.Histogram.Snapshot into a cumulative good count — conservative on
// the bucket geometry (the effective bound is bound rounded down to
// 2^k−1), which errs toward counting borderline samples as bad, never
// as good.
func GoodUnderBound(snap *[stats.ExpBuckets]uint64, bound int64) uint64 {
	var good uint64
	for b := 0; b < stats.ExpBuckets; b++ {
		if stats.ExpBucketUpper(b) > bound {
			break
		}
		good += snap[b]
	}
	return good
}

// register publishes the resd_slo_* families. Every collector reads
// engine state under e.mu — scrape-safe by the same argument as every
// other obs collector: the lock is shared with the tick goroutine, and
// neither side ever touches a shard event loop.
func (e *Engine) register() {
	if e.reg == nil {
		return
	}
	labels := func(st *objState) []obs.Label {
		ls := []obs.Label{obs.L("objective", st.o.Name)}
		if st.o.Tenant != "" {
			ls = append(ls, obs.L("tenant", st.o.Tenant))
		}
		return ls
	}
	e.reg.Collect(obs.KindGauge, "resd_slo_attainment",
		"Good-event fraction per objective over the SLO budget window (1 = every event met the objective).",
		func(em obs.Emitter) {
			e.mu.Lock()
			defer e.mu.Unlock()
			for _, st := range e.objs {
				em.Emit(st.attainment, labels(st)...)
			}
		})
	e.reg.Collect(obs.KindGauge, "resd_slo_error_budget_remaining",
		"Unburned fraction of each objective's error budget over the budget window (negative = overspent).",
		func(em obs.Emitter) {
			e.mu.Lock()
			defer e.mu.Unlock()
			for _, st := range e.objs {
				em.Emit(st.budget, labels(st)...)
			}
		})
	e.reg.Collect(obs.KindGauge, "resd_slo_burn_rate",
		"Error-budget burn rate per objective and trailing window (1 = burning exactly the budgeted rate).",
		func(em obs.Emitter) {
			e.mu.Lock()
			defer e.mu.Unlock()
			for _, st := range e.objs {
				for _, wb := range st.burns {
					em.Emit(wb.burn, append(labels(st), obs.L("window", wb.label))...)
				}
			}
		})
	e.reg.Collect(obs.KindGauge, "resd_slo_alert_state",
		"Per-objective alert state: 0 ok, 1 warn, 2 page.",
		func(em obs.Emitter) {
			e.mu.Lock()
			defer e.mu.Unlock()
			for _, st := range e.objs {
				em.Emit(float64(st.sev), labels(st)...)
			}
		})
	e.reg.Collect(obs.KindCounter, "resd_slo_alert_transitions_total",
		"Alert-state transitions per objective since start.",
		func(em obs.Emitter) {
			e.mu.Lock()
			defer e.mu.Unlock()
			for _, st := range e.objs {
				em.Emit(float64(st.transitions), labels(st)...)
			}
		})
}
