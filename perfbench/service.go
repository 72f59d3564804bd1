package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/resd"
	"repro/internal/reswire"
	"repro/internal/rng"
	"repro/internal/slo"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// svcSpec is one admission-service workload: the deployment it builds
// and the closed loop of callers it drives against it.
type svcSpec struct {
	shards, m int
	alpha     float64
	// wire puts a reswire.Server on loopback in front of the service and
	// drives it through one reswire.Client with conns connections.
	wire  bool
	conns int
	// callers is the number of closed-loop callers (goroutines).
	callers int
	// window is how many live reservations a caller keeps: past it, the
	// caller cancels its oldest, so the index stays at a steady size.
	window int
	// preload reservations per shard are admitted during set-up and kept.
	preload int
	// queryFrac is the share of operations that are Query(t) reads.
	queryFrac float64
	// durable arms the deployed stack: WAL flushed once per group commit
	// under sync, soft tenant quotas, obs registry, flight recorder, SLO
	// engine, a Watch subscriber and a periodic registry scrape.
	durable bool
	sync    wal.SyncMode
	// snapEvery is the WAL's snapshot interval in records per shard; 0
	// takes no snapshots, and recovery replays the whole log.
	snapEvery int
	// horizon bounds ready times and Query probes.
	horizon core.Time
	// draw makes one admission request.
	draw func(r *rng.PCG) resd.Request
}

const (
	backend     = "tree"
	traceSample = 4       // traced phase: one admission in 4 enters the ring
	traceBuf    = 1 << 16 // ring capacity: the traced phase's samples fit
	replaySize  = 4096    // frames kept for the codec replay
	nTenants    = 8
	warmup      = time.Second
)

// stack is one built deployment of a svcSpec.
type stack struct {
	spec    *svcSpec
	cfg     resd.Config
	svc     *resd.Service
	srv     *reswire.Server
	cli     *reswire.Client
	served  chan error
	reg     *obs.Registry
	rec     *flight.Recorder
	preload []resd.Reservation

	stopSide context.CancelFunc // ends the watch and scrape goroutines
	side     sync.WaitGroup
	mu       sync.Mutex
	scrapes  []int64 // registry scrape durations, ns
	watch    struct{ frames, dropped uint64 }
}

// tenantName is the accounting identity of tenant i.
func tenantName(i int) string { return fmt.Sprintf("t%d", i) }

func (sp *svcSpec) quotaRegistry() (*tenant.Registry, error) {
	spec := tenant.Spec{Mode: "soft"}
	for i := range nTenants {
		spec.Tenants = append(spec.Tenants, tenant.TenantSpec{Name: tenantName(i), Share: 1.0 / nTenants})
	}
	return tenant.New(tenant.PrefixCapacity(sp.shards, sp.m, sp.alpha, int64(sp.horizon)), spec)
}

// build sets up a deployment: service (WAL in walDir when durable),
// preloaded reservations, and the wire server and client. A traced
// build runs on the counting index backend and samples admissions into
// the trace ring.
func (sp *svcSpec) build(seed uint64, traced bool, walDir string) (*stack, error) {
	st := &stack{spec: sp, cfg: resd.Config{
		Shards: sp.shards, M: sp.m, Alpha: sp.alpha, Backend: backend, Seed: seed,
	}}
	if traced {
		registerCounting()
		st.cfg.Backend = countedBackend(backend)
	}
	if traced || sp.durable {
		st.reg = obs.NewRegistry()
		st.cfg.Obs = &resd.ObsConfig{Registry: st.reg}
	}
	if traced {
		st.cfg.Obs.TraceSample, st.cfg.Obs.TraceBuf = traceSample, traceBuf
	}
	if sp.durable {
		obs.RegisterRuntime(st.reg, "perfbench")
		rec, err := flight.New(flight.Config{Registry: st.reg})
		if err != nil {
			return nil, err
		}
		eng, err := slo.New(slo.Config{Spec: sloSpec, Registry: st.reg, Journal: rec.Journal()})
		if err != nil {
			return nil, err
		}
		q, err := sp.quotaRegistry()
		if err != nil {
			return nil, err
		}
		st.rec = rec
		st.cfg.Obs.Flight, st.cfg.Obs.SLO = rec, eng
		st.cfg.Quotas = q
		st.cfg.WAL = &wal.Options{Dir: walDir, Sync: sp.sync, SnapEvery: sp.snapEvery}
	}
	svc, err := resd.New(st.cfg)
	if err != nil {
		return nil, err
	}
	st.svc = svc
	if err := st.preloadShards(seed); err != nil {
		st.close()
		return nil, err
	}
	if sp.wire {
		if err := st.listen(); err != nil {
			st.close()
			return nil, err
		}
	}
	if sp.durable {
		st.startSide()
	}
	return st, nil
}

// sloSpec is the durable workload's objective set: deadline attainment
// and error rate, evaluated every second.
var sloSpec = slo.Spec{Period: "1s", BudgetWindow: "1m", Objectives: []slo.ObjectiveSpec{
	{Name: "attainment", Signal: "deadline_attainment", Target: 0.5},
	{Name: "errors", Signal: "error_rate", Target: 0.99},
}}

// preloadShards admits spec.preload reservations per shard in-process,
// from several goroutines so they share group-commit batches.
func (st *stack) preloadShards(seed uint64) error {
	n := st.spec.preload * st.spec.shards
	if n == 0 {
		return nil
	}
	const workers = 16
	out := make([][]resd.Reservation, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.NewStream(seed, 1000+uint64(w))
			for i := w; i < n; i += workers {
				res, err := st.svc.Admit(preloadDraw(r, st.spec.horizon))
				if err != nil {
					errs[w] = fmt.Errorf("preload: %w", err)
					return
				}
				out[w] = append(out[w], res)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, o := range out {
		st.preload = append(st.preload, o...)
	}
	return nil
}

func (st *stack) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.srv = reswire.NewServer(st.svc)
	if st.spec.durable {
		st.srv.SetMetrics(reswire.NewMetrics(st.reg, "server"))
		st.srv.SetFlight(st.rec.Journal())
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.cli, err = reswire.Dial(ln.Addr().String(), reswire.Options{Conns: st.spec.conns, Pipeline: true})
	return err
}

// startSide starts the durable workload's readers beside the load: one
// Watch subscriber and a registry scrape every 100 ms.
func (st *stack) startSide() {
	ctx, cancel := context.WithCancel(context.Background())
	st.stopSide = cancel
	if frames, err := st.cli.Watch(ctx, reswire.WatchOptions{Interval: 50 * time.Millisecond, Mask: reswire.WatchAll}); err == nil {
		st.side.Add(1)
		go func() {
			defer st.side.Done()
			for t := range frames {
				st.mu.Lock()
				st.watch.frames++
				st.watch.dropped = max(st.watch.dropped, t.Dropped)
				st.mu.Unlock()
			}
		}()
	}
	st.side.Add(1)
	go func() {
		defer st.side.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			t0 := time.Now()
			_ = st.reg.WritePrometheus(io.Discard) // io.Discard never fails
			st.mu.Lock()
			st.scrapes = append(st.scrapes, int64(time.Since(t0)))
			st.mu.Unlock()
		}
	}()
}

func (st *stack) admit(req resd.Request) (resd.Reservation, error) {
	if st.cli != nil {
		return st.cli.Admit(req)
	}
	return st.svc.Admit(req)
}

func (st *stack) cancel(id resd.ID) error {
	if st.cli != nil {
		return st.cli.Cancel(id)
	}
	return st.svc.Cancel(id)
}

func (st *stack) query(t core.Time) error {
	var err error
	if st.cli != nil {
		_, err = st.cli.Query(t)
	} else {
		_, err = st.svc.Query(t)
	}
	return err
}

// closeFront stops everything in front of the service: side readers,
// client and server.
func (st *stack) closeFront() {
	if st.stopSide != nil {
		st.stopSide()
		st.stopSide = nil
	}
	if st.cli != nil {
		st.cli.Close()
		st.cli = nil
	}
	if st.srv != nil {
		st.srv.Close()
		<-st.served
		st.srv = nil
	}
	st.side.Wait()
}

func (st *stack) close() {
	st.closeFront()
	if st.svc != nil {
		st.svc.Close()
		st.svc = nil
	}
}

// callerState is one closed-loop caller's private state.
type callerState struct {
	r      *rng.PCG
	live   []resd.Reservation // oldest first
	frames []reswire.Request  // Admit requests kept for the codec replay
	resps  []reswire.Response
}

// load drives a built stack with the spec's callers.
type load struct {
	st      *stack
	callers []*callerState
	traced  bool
	stamps  stamper
}

func newLoad(st *stack, seed uint64) *load {
	l := &load{st: st}
	for c := range st.spec.callers {
		l.callers = append(l.callers, &callerState{r: rng.NewStream(seed, uint64(c))})
	}
	return l
}

// run drives the closed loop for d and returns the merged tally and the
// measured wall time.
func (l *load) run(d time.Duration) (*tally, time.Duration) {
	t0 := time.Now()
	ts := closedLoop(len(l.callers), d, l.step)
	el := time.Since(t0)
	all := &tally{}
	for _, t := range ts {
		all.merge(t)
	}
	return all, el
}

// step is one caller iteration: a Query, or an Admit followed by the
// Cancels that bring the caller back to its window.
func (l *load) step(c int, t *tally) {
	cs, sp := l.callers[c], l.st.spec
	if sp.queryFrac > 0 && cs.r.Float64() < sp.queryFrac {
		at := core.Time(cs.r.Int63n(int64(sp.horizon)))
		t0 := time.Now()
		err := l.st.query(at)
		t.opResult(opQuery, err, time.Since(t0))
		return
	}
	req := sp.draw(cs.r)
	t0 := time.Now()
	if l.traced {
		req.ClientSend = l.stamps.next(t0)
	}
	res, err := l.st.admit(req)
	t1 := time.Now()
	lat := t1.Sub(t0)
	if t.admitResult(req, res, err, lat) {
		cs.live = append(cs.live, res)
		if l.traced && sp.wire && len(cs.frames) < replaySize/len(l.callers) {
			cs.frames = append(cs.frames, reswire.Request{ID: uint64(len(cs.frames) + 1), Op: reswire.OpReserve,
				Ready: req.Ready, Procs: req.Q, Dur: req.Dur, Deadline: req.Deadline, Tenant: req.Tenant, Stamp: req.ClientSend})
			cs.resps = append(cs.resps, reswire.Response{ID: uint64(len(cs.resps) + 1), Op: reswire.OpReserve, Resv: res})
		}
	}
	if l.traced {
		t.calls = append(t.calls, callRecord{Stamp: req.ClientSend, Return: t1.UnixNano(), Latency: lat})
	}
	for len(cs.live) > sp.window {
		id := cs.live[0].ID
		cs.live = cs.live[1:]
		t0 := time.Now()
		err := l.st.cancel(id)
		t.opResult(opCancel, err, time.Since(t0))
	}
}

// live returns every reservation the callers hold, acknowledged and not
// cancelled.
func (l *load) live() []resd.Reservation {
	var out []resd.Reservation
	for _, cs := range l.callers {
		out = append(out, cs.live...)
	}
	return out
}
