package resd

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/rebal"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// opKind discriminates shard requests.
type opKind uint8

const (
	opReserve opKind = iota
	opCancel
	opQuery
	opSnapshot
	opTenantStats

	// Migration ops, used only by the rebalancer (Service.Rebalance).
	// opMigratable lists the shard's movable reservations; the other four
	// are the two-phase move: a tentative In on the target (index
	// committed, books untouched, invisible to Cancel), then Out on the
	// source (index released, books transferred out), then Commit on the
	// target (books transferred in) — or Abort on the target when the
	// source copy turned out to be cancelled in the meantime.
	opMigratable
	opMigrateIn
	opMigrateOut
	opMigrateCommit
	opMigrateAbort
	// opMigrateOutAck closes the source's WAL open-out after the target
	// committed: pure durability bookkeeping, a no-op without a WAL.
	opMigrateOutAck
)

// errMigratePending is the internal answer to a Cancel that reaches a
// tentative migrated-in copy: the two-phase move is mid-flight, and the
// service-level Cancel retries until the move commits or aborts. It never
// escapes the package.
var errMigratePending = errors.New("resd: reservation migration in flight")

// request is one operation submitted to a shard's event loop.
type request struct {
	kind     opKind
	tenant   string       // Reserve: accounting identity (never empty; "" is normalised upstream)
	ready    core.Time    // Reserve: earliest start; Query: probe instant
	q        int          // Reserve width
	dur      core.Time    // Reserve length
	deadline core.Time    // Reserve: latest admissible start (NoDeadline = unbounded)
	id       ID           // Cancel target
	peer     int          // two-phase move: the other shard (in: source, out: target)
	trace    *TraceRecord // sampled admission trace, nil for the unsampled majority
	reply    chan response
}

// response carries the result back to the caller. Exactly one of the
// fields is meaningful per kind; err reports failure.
type response struct {
	resv   Reservation
	free   int
	snap   profile.CapacityIndex
	tstats map[string]TenantStats
	cands  []rebal.Resv
	err    error
}

// active is a shard-local record of an admitted reservation. tenant is
// the accounting identity quota release uses; statKey is the (possibly
// overflow-bounded) per-shard book the admission was recorded under.
// pending marks a tentative migrated-in copy: its capacity is committed
// on the index but it is not yet in the shard's books and a Cancel
// reaching it is told to retry (errMigratePending) until the move
// resolves.
type active struct {
	start, dur core.Time
	q          int
	tenant     string
	statKey    string
	pending    bool
	from       int // pending only: the move's source shard (WAL recovery)
}

// OverflowTenant is the per-shard book that absorbs tenant names beyond
// the tenant.MaxAccounts bound: the loop-owned stats maps must not grow
// without limit just because a wire client cycles fresh names. Admission
// and quota accounting are unaffected — only per-name attribution in
// TenantStats degrades past the cap.
const OverflowTenant = "!overflow"

// tstatKey resolves which per-tenant book a name lands in, bounding the
// map like the registry bounds its accounts. The first time a shard
// falls back to the overflow book it journals the degradation: from
// that point per-name attribution is lossy, which an operator reading
// TenantStats should know without diffing map sizes.
func (sh *shard) tstatKey(name string) string {
	if _, ok := sh.tstats[name]; ok {
		return name
	}
	if len(sh.tstats) >= tenant.MaxAccounts {
		if !sh.overflowed {
			sh.overflowed = true
			sh.journal.RecordEvent(flight.Event{
				Sev: flight.Warn, Subsys: "resd", Shard: sh.id, Tenant: name,
				Msg: "tenant book overflow activated: per-name attribution degraded",
				KV:  []flight.KV{{K: "max_accounts", V: strconv.Itoa(tenant.MaxAccounts)}},
			})
		}
		return OverflowTenant
	}
	return name
}

// shard is one cluster partition: a capacity index plus the admission
// bookkeeping, owned exclusively by the loop goroutine. The only state
// other goroutines touch is the request channel and the atomic counters.
type shard struct {
	id     int
	m      int
	floor  int // α-rule head-room every admission must leave free
	batch  int
	quotas *tenant.Registry // nil = quota enforcement disabled

	idx    profile.CapacityIndex
	live   map[ID]active
	tstats map[string]TenantStats // per-tenant books, loop-owned
	// slack records the start-time slack of every admission. An atomic
	// obs.Histogram rather than a loop-owned slackHist so its readers —
	// ShardStats.SlackP99, the resd_slack_ticks summary and the SLO
	// engine's snapshot ring — need no event-loop round trip; only the
	// loop writes it.
	slack   *obs.Histogram
	tslack  map[string]*slackHist // per-tenant slack, keyed like tstats
	nextSeq uint64
	area    int64 // running processor-tick area of live reservations

	// tenAreas mirrors the per-tenant committed area as atomics (one cell
	// per tstats book), written only by the loop: the lock-free per-shard
	// per-tenant load summary the "pressure" placement policy routes by.
	tenAreas sync.Map // string → *atomic.Int64

	reqs chan request
	quit <-chan struct{}
	done chan struct{}

	// fairOrder scratch, reused across batches so the soft-mode reorder
	// allocates nothing per event-loop turn (like pending/results).
	fairPos      []int
	fairReserves []request
	fairRatios   []float64
	fairOrderIdx []int

	// Load summary published once per batch (group commit): placement
	// policies and Stats read these without touching the loop.
	activeCount   atomic.Int64
	committedArea atomic.Int64
	admitted      atomic.Uint64
	cancelled     atomic.Uint64
	rejected      atomic.Uint64
	rejectedDL    atomic.Uint64
	rejectedQuota atomic.Uint64
	migratedIn    atomic.Uint64
	migratedOut   atomic.Uint64
	batches       atomic.Uint64
	ops           atomic.Uint64

	// Observability extra: turnNs records each event-loop turn's
	// apply+publish latency. Written only when obsOn — the unobserved
	// configuration pays one predicted branch per batch.
	obsOn  bool
	turnNs *obs.Histogram

	// Flight recorder surface. journal is nil-safe (a shard without a
	// recorder records into nothing); when flightOn the loop publishes
	// its heartbeat — busySince on entering a turn, lastBeat on
	// completing one, both unix nanoseconds — for the watchdog's
	// lock-free stall probes, and journals turns slower than
	// slowTurnThreshold. overflowed latches the tenant-book overflow
	// event (loop-owned). turnHook, set only by tests via the
	// unexported Config field, runs at the top of every turn.
	journal    *flight.Journal
	flightOn   bool
	lastBeat   atomic.Int64
	busySince  atomic.Int64
	overflowed bool
	turnHook   func(shard int)

	// Durability. wlog is the shard's write-ahead log (nil = in-memory
	// service); every state-changing op appends its record during apply
	// and the loop group-commits once per batch, before the replies are
	// released. openOuts tracks migrate-outs the peer has not durably
	// committed yet (loop-owned, persisted in snapshots). A WAL write
	// failure degrades the shard to non-durable (walFailed counts it)
	// rather than taking admissions down with the disk.
	wlog      *wal.Log
	snapEvery int
	openOuts  map[ID]int
	snapBusy  atomic.Bool
	snapWG    sync.WaitGroup
	walFailed atomic.Uint64
}

// tenAreaCell returns the shard's atomic area mirror for one tenant book,
// creating it on first use. Written only by the loop; read lock-free by
// the pressure placement policy.
func (sh *shard) tenAreaCell(statKey string) *atomic.Int64 {
	if v, ok := sh.tenAreas.Load(statKey); ok {
		return v.(*atomic.Int64)
	}
	v, _ := sh.tenAreas.LoadOrStore(statKey, new(atomic.Int64))
	return v.(*atomic.Int64)
}

// tenantArea reads one tenant's committed area on this shard (0 when the
// tenant has never touched the shard).
func (sh *shard) tenantArea(name string) int64 {
	if v, ok := sh.tenAreas.Load(name); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// newShard builds the partition's index (with the Pre reservations
// committed) and starts its event loop. floor is the service-computed
// α head-room, passed in so the Reserve pre-check in Service and the
// enforcement here can never disagree. seed, when non-nil, is the
// shard's recovered pre-crash state (WAL replay): it is re-committed
// to the fresh index — placements land on the exact pre-crash profile
// — before the loop starts, and a boot snapshot anchors the new log
// generation so the replayed generations can be truncated.
func newShard(id int, cfg Config, floor int, quit <-chan struct{}, seed *shardSeed) (*shard, error) {
	idx, err := profile.IndexFromReservations(cfg.Backend, cfg.M, cfg.Pre)
	if err != nil {
		return nil, fmt.Errorf("resd: shard %d: %w", id, err)
	}
	sh := &shard{
		id:     id,
		m:      cfg.M,
		floor:  floor,
		batch:  cfg.Batch,
		quotas: cfg.Quotas,
		idx:    idx,
		live:   make(map[ID]active),
		tstats: make(map[string]TenantStats),
		slack:  &obs.Histogram{},
		tslack: make(map[string]*slackHist),
		reqs:   make(chan request, cfg.Batch),
		quit:   quit,
		done:   make(chan struct{}),
	}
	if cfg.Obs != nil && cfg.Obs.Registry != nil {
		sh.obsOn = true
		sh.turnNs = cfg.Obs.Registry.NewHistogram("resd_loop_turn_ns",
			"Event-loop turn latency (apply+publish of one batch), nanoseconds.",
			obs.L("shard", strconv.Itoa(id)))
	}
	if cfg.Obs != nil && cfg.Obs.Flight != nil {
		sh.flightOn = true
		sh.journal = cfg.Obs.Flight.Journal()
		// A fresh loop "beat" at creation: the watchdog's queued-but-no-
		// turn rule measures from here, so an idle-since-boot shard that
		// suddenly wedges is judged from boot, not from a zero time.
		sh.lastBeat.Store(time.Now().UnixNano())
	}
	sh.turnHook = cfg.turnHook
	if seed != nil {
		if err := sh.adoptSeed(cfg, seed); err != nil {
			return nil, err
		}
	}
	go sh.loop()
	return sh, nil
}

// adoptSeed installs recovered state before the loop starts: log handle,
// sequence counter, books, counters, and every surviving reservation
// committed back onto the index. The pre-crash state was legal against
// the same Pre and M, so a commit failure here means the configuration
// shrank under the recovered load — an error, not a panic.
func (sh *shard) adoptSeed(cfg Config, seed *shardSeed) error {
	sh.wlog = seed.log
	sh.snapEvery = cfg.WAL.SnapEvery
	sh.openOuts = seed.openOuts
	sh.nextSeq = seed.nextSeq
	sh.admitted.Store(seed.admitted)
	sh.cancelled.Store(seed.cancelled)
	sh.migratedIn.Store(seed.migratedIn)
	sh.migratedOut.Store(seed.migratedOut)
	sh.tstats = seed.books
	ids := make([]ID, 0, len(seed.live))
	for id := range seed.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a := seed.live[id]
		if err := sh.idx.Commit(a.start, a.dur, a.q); err != nil {
			return fmt.Errorf("resd: shard %d: recovered reservation %#x (start=%v dur=%v q=%d) no longer fits: %w",
				sh.id, uint64(id), a.start, a.dur, a.q, err)
		}
		sh.live[id] = a
		sh.area += int64(a.dur) * int64(a.q)
	}
	for name, ts := range sh.tstats {
		if ts.CommittedArea != 0 {
			sh.tenAreaCell(name).Store(ts.CommittedArea)
		}
	}
	sh.activeCount.Store(int64(len(sh.live)))
	sh.committedArea.Store(sh.area)
	// Anchor a snapshot of the recovered state so the generations replay
	// just consumed can be deleted. The boot generation may already hold
	// recovery's fixup records, whose effects this state includes, so the
	// snapshot anchors the generation after them (rotate first). Written
	// synchronously: by the time New returns, recovery is complete and
	// the old logs are gone. Skipped for a state-free boot (nothing to
	// anchor) and when snapshots are disabled.
	if sh.snapEvery > 0 && (len(sh.live) > 0 || len(sh.tstats) > 0 || seed.admitted > 0) {
		gen, err := sh.wlog.Rotate()
		if err != nil {
			return fmt.Errorf("resd: shard %d: boot snapshot: %w", sh.id, err)
		}
		if err := sh.wlog.WriteSnapshot(seed.bootSnapshot(sh.id, gen)); err != nil {
			return fmt.Errorf("resd: shard %d: boot snapshot: %w", sh.id, err)
		}
	}
	return nil
}

// do submits one request and blocks for its response. It never blocks past
// service shutdown: enqueue and reply are both raced against quit.
func (sh *shard) do(req request) (response, error) {
	req.reply = make(chan response, 1)
	select {
	case sh.reqs <- req:
	case <-sh.quit:
		return response{}, ErrClosed
	}
	select {
	case resp := <-req.reply:
		return resp, resp.err
	case <-sh.quit:
		// The loop may still answer (reply is buffered); prefer the real
		// answer if it already arrived, otherwise report the shutdown.
		select {
		case resp := <-req.reply:
			return resp, resp.err
		default:
			return response{}, ErrClosed
		}
	}
}

// wait blocks until the event loop has exited (after quit is closed).
func (sh *shard) wait() { <-sh.done }

// loop is the shard's single writer. Each turn blocks for one request,
// drains up to batch-1 more that are already pending, applies the whole
// group against the index, publishes the load summary once, and only then
// releases the replies — the group-commit that amortises synchronisation
// under load while keeping single-request latency at one handoff.
func (sh *shard) loop() {
	defer close(sh.done)
	// Runs before done closes (LIFO): wait out any in-flight snapshot
	// write, then seal the log so the final generation is complete.
	defer func() {
		sh.snapWG.Wait()
		if sh.wlog != nil {
			if err := sh.wlog.Close(); err != nil {
				sh.report(flight.Error, "wal", fmt.Sprintf("wal close: %v", err))
			}
		}
	}()
	pending := make([]request, 0, sh.batch)
	results := make([]response, 0, sh.batch)
	for {
		var first request
		select {
		case <-sh.quit:
			sh.drainClosed()
			return
		case first = <-sh.reqs:
		}
		if sh.flightOn {
			sh.busySince.Store(time.Now().UnixNano())
		}
		if sh.turnHook != nil {
			sh.turnHook(sh.id)
		}
		pending = append(pending[:0], first)
		// The send that delivered first also scheduled this goroutine to
		// run immediately next (the runtime's direct handoff), so the
		// queue is usually still empty here even with many callers in
		// flight. Yield once per round so every runnable caller gets to
		// enqueue, and keep draining until a round adds nothing — that
		// turns nominal batches of 1 into real group commits under load,
		// while a lone caller pays only a no-op yield.
		for drained := true; drained && len(pending) < sh.batch; {
			runtime.Gosched()
			drained = false
		drain:
			for len(pending) < sh.batch {
				select {
				case r := <-sh.reqs:
					pending = append(pending, r)
					drained = true
				default:
					break drain
				}
			}
		}
		sh.fairOrder(pending)
		var turnStart time.Time
		if sh.obsOn {
			turnStart = time.Now()
		}
		results = results[:0]
		for _, r := range pending {
			if r.trace != nil {
				r.trace.BatchStart = time.Since(r.trace.Arrival)
			}
			results = append(results, sh.apply(r))
		}
		// The group-commit durability point: every record the batch
		// appended is flushed (and fsynced, under SyncBatch) in one call
		// before any reply is released — callers never observe a success
		// the log could forget.
		if sh.wlog != nil {
			if err := sh.wlog.Commit(); err != nil {
				sh.walFail("commit", err)
			}
		}
		sh.publish(len(pending))
		if sh.obsOn {
			sh.turnNs.Observe(time.Since(turnStart).Nanoseconds())
		}
		for i, r := range pending {
			r.reply <- results[i]
		}
		if sh.flightOn {
			sh.beat(len(pending))
		}
		sh.maybeSnapshot()
	}
}

// slowTurnThreshold is the batch-turn anomaly budget: a turn that took
// longer than this is journaled (the whole loop was unavailable for
// the duration — every queued caller waited it out).
const slowTurnThreshold = 100 * time.Millisecond

// beat completes the loop's heartbeat for one turn: journal the turn
// as an anomaly if it ran long, then publish "turn done, loop idle"
// for the watchdog's stall probes.
func (sh *shard) beat(ops int) {
	now := time.Now()
	if busy := sh.busySince.Load(); busy != 0 {
		if d := now.Sub(time.Unix(0, busy)); d >= slowTurnThreshold {
			sh.journal.Record(flight.Warn, "resd", sh.id, "slow batch turn",
				flight.KV{K: "turn", V: d.String()}, flight.KV{K: "ops", V: strconv.Itoa(ops)})
		}
	}
	sh.lastBeat.Store(now.UnixNano())
	sh.busySince.Store(0)
}

// report journals an event, or falls back to stderr when the shard has
// no recorder — the pre-flight behaviour for a bare service.
func (sh *shard) report(sev flight.Severity, subsys, msg string, kv ...flight.KV) {
	if sh.journal != nil {
		sh.journal.Record(sev, subsys, sh.id, msg, kv...)
		return
	}
	fmt.Fprintf(os.Stderr, "resd: shard %d: %s\n", sh.id, msg)
}

// fairOrder is soft-mode weighted fair share at the group-commit point:
// when the batch carries competing Reserve requests, they are permuted —
// among the Reserve positions only, every other op keeps its place — so
// the tenant with the lowest usage-to-budget ratio commits first and takes
// the earlier (cheaper) start times, DRF-style. The sort is stable, so
// same-tenant and equal-pressure requests keep their arrival order; with a
// single serial caller every batch holds one request and the ordering is a
// no-op, which is what preserves the serial-replay-equals-FCFS guarantee.
// Ratios are read once per batch from the registry's atomics: reads racing
// concurrent commits are as harmlessly stale as the placement policies'
// load summaries.
func (sh *shard) fairOrder(pending []request) {
	if sh.quotas == nil || sh.quotas.Mode() != tenant.Soft || len(pending) < 2 {
		return
	}
	pos := sh.fairPos[:0]
	for i, r := range pending {
		if r.kind == opReserve {
			pos = append(pos, i)
		}
	}
	sh.fairPos = pos
	if len(pos) < 2 {
		return
	}
	reserves := sh.fairReserves[:0]
	ratios := sh.fairRatios[:0]
	order := sh.fairOrderIdx[:0]
	for k, i := range pos {
		reserves = append(reserves, pending[i])
		ratios = append(ratios, sh.quotas.Ratio(pending[i].tenant))
		order = append(order, k)
	}
	sh.fairReserves, sh.fairRatios, sh.fairOrderIdx = reserves, ratios, order
	sort.SliceStable(order, func(a, b int) bool { return ratios[order[a]] < ratios[order[b]] })
	for k, i := range pos {
		pending[i] = reserves[order[k]]
	}
}

// drainClosed answers every request still queued at shutdown.
func (sh *shard) drainClosed() {
	for {
		select {
		case r := <-sh.reqs:
			r.reply <- response{err: ErrClosed}
		default:
			return
		}
	}
}

// apply executes one request against the shard-local state. Runs only on
// the loop goroutine.
func (sh *shard) apply(r request) response {
	switch r.kind {
	case opReserve:
		return sh.reserve(r)
	case opCancel:
		return sh.cancel(r)
	case opQuery:
		return response{free: sh.idx.AvailableAt(r.ready)}
	case opSnapshot:
		return response{snap: sh.idx.CloneIndex()}
	case opTenantStats:
		out := make(map[string]TenantStats, len(sh.tstats))
		for name, ts := range sh.tstats {
			if h := sh.tslack[name]; h != nil {
				ts.SlackP99 = h.p99()
			}
			out[name] = ts
		}
		return response{tstats: out}
	case opMigratable:
		return sh.migratable(r)
	case opMigrateIn:
		return sh.migrateIn(r)
	case opMigrateOut:
		return sh.migrateOut(r)
	case opMigrateCommit:
		return sh.migrateCommit(r)
	case opMigrateAbort:
		return sh.migrateAbort(r)
	case opMigrateOutAck:
		return sh.migrateOutAck(r)
	default:
		return response{err: fmt.Errorf("%w: unknown op %d", ErrBadRequest, r.kind)}
	}
}

// reserve admits at the earliest start >= ready that leaves the α-rule
// head-room free across the whole window: one FindSlot for q+floor
// processors, then a Commit of q. A request with a deadline is rejected —
// not pushed back — when that earliest start lands after the deadline,
// and a feasible-and-timely request is charged to its tenant's quota
// before the commit (the quota check runs last, so a doomed request never
// burns budget, however briefly).
func (sh *shard) reserve(r request) response {
	start, ok := sh.idx.FindSlot(r.ready, r.q+sh.floor, r.dur)
	if !ok {
		sh.rejected.Add(1)
		return response{err: fmt.Errorf("%w: q=%d dur=%v with α-floor %d on shard %d",
			ErrNeverFits, r.q, r.dur, sh.floor, sh.id)}
	}
	if start > r.deadline {
		sh.rejectedDL.Add(1)
		return response{err: fmt.Errorf("%w: earliest feasible start %v > deadline %v (q=%d dur=%v, shard %d)",
			ErrDeadline, start, r.deadline, r.q, r.dur, sh.id)}
	}
	area := int64(r.dur) * int64(r.q)
	statKey := sh.tstatKey(r.tenant)
	if sh.quotas != nil {
		if err := sh.quotas.Acquire(r.tenant, area); err != nil {
			sh.rejectedQuota.Add(1)
			ts := sh.tstats[statKey]
			ts.RejectedQuota++
			sh.tstats[statKey] = ts
			return response{err: fmt.Errorf("shard %d: %w", sh.id, err)}
		}
	}
	if err := sh.idx.Commit(start, r.dur, r.q); err != nil {
		// Unreachable: FindSlot guarantees capacity and the loop is the
		// only writer. Surface rather than panic so a backend bug turns
		// into a failed request, not a dead shard.
		if sh.quotas != nil {
			sh.quotas.Rollback(r.tenant, area)
		}
		sh.rejected.Add(1)
		return response{err: fmt.Errorf("resd: shard %d commit after FindSlot: %w", sh.id, err)}
	}
	if sh.quotas != nil {
		sh.quotas.Admit(r.tenant)
	}
	id := makeID(sh.id, sh.nextSeq)
	sh.nextSeq++
	sh.walAppend(wal.Record{
		Type: wal.TAdmit, ID: uint64(id), Tenant: r.tenant,
		Ready: int64(r.ready), Procs: r.q, Dur: int64(r.dur),
		Deadline: int64(r.deadline), Start: int64(start),
	})
	sh.live[id] = active{start: start, dur: r.dur, q: r.q, tenant: r.tenant, statKey: statKey}
	sh.area += area
	ts := sh.tstats[statKey]
	ts.Active++
	ts.CommittedArea += area
	ts.Admitted++
	sh.tstats[statKey] = ts
	sh.tenAreaCell(statKey).Add(area)
	// Start-time slack — how far past its ready time the admission had to
	// be pushed — is the per-admission SLO sample surfaced as p99 in
	// ShardStats and per tenant in TenantStats.
	sh.slack.Observe(int64(start - r.ready))
	th := sh.tslack[statKey]
	if th == nil {
		th = new(slackHist)
		sh.tslack[statKey] = th
	}
	th.add(start - r.ready)
	sh.admitted.Add(1)
	return response{resv: Reservation{ID: id, Shard: sh.id, Start: start, Dur: r.dur, Procs: r.q}}
}

// cancel releases an admitted reservation and credits the area back to
// its tenant's quota. A tentative migrated-in copy is not cancellable —
// the service retries until the in-flight move commits or aborts, so a
// Cancel can never release a reservation the two-phase protocol still
// owns.
func (sh *shard) cancel(r request) response {
	a, ok := sh.live[r.id]
	if !ok {
		return response{err: fmt.Errorf("%w: %#x on shard %d", ErrUnknownID, uint64(r.id), sh.id)}
	}
	if a.pending {
		return response{err: fmt.Errorf("%w: %#x on shard %d", errMigratePending, uint64(r.id), sh.id)}
	}
	if err := sh.idx.Release(a.start, a.dur, a.q); err != nil {
		return response{err: fmt.Errorf("resd: shard %d release: %w", sh.id, err)}
	}
	sh.walAppend(wal.Record{Type: wal.TCancel, ID: uint64(r.id)})
	delete(sh.live, r.id)
	area := int64(a.dur) * int64(a.q)
	sh.area -= area
	if sh.quotas != nil {
		sh.quotas.Release(a.tenant, area)
	}
	ts := sh.tstats[a.statKey]
	ts.Active--
	ts.CommittedArea -= area
	ts.Cancelled++
	sh.tstats[a.statKey] = ts
	sh.tenAreaCell(a.statKey).Add(-area)
	sh.cancelled.Add(1)
	return response{}
}

// migratable lists the shard's movable reservations: live, not pending,
// and starting at or after the cutoff carried in r.ready (now + the
// frozen window Δ). The list is consistent (served inside the loop) and
// sorted by ID so planning over it is deterministic.
func (sh *shard) migratable(r request) response {
	var out []rebal.Resv
	for id, a := range sh.live {
		if a.pending || a.start < r.ready {
			continue
		}
		out = append(out, rebal.Resv{
			ID: uint64(id), Start: a.start, Dur: a.dur, Procs: a.q, Tenant: a.tenant,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return response{cands: out}
}

// migrateIn tentatively hosts a reservation migrating from another shard:
// the capacity is committed — under the same α head-room rule as a fresh
// admission — but the copy stays pending: out of the books, invisible to
// Cancel, uncounted. Quota is not touched: the tenant's global charge
// rides along with the reservation, paid once at original admission.
func (sh *shard) migrateIn(r request) response {
	if _, dup := sh.live[r.id]; dup {
		return response{err: fmt.Errorf("%w: migrate-in of resident id %#x on shard %d", ErrBadRequest, uint64(r.id), sh.id)}
	}
	if !sh.idx.CanPlace(r.ready, r.dur, r.q+sh.floor) {
		return response{err: fmt.Errorf("%w: shard %d cannot host q=%d at %v under α-floor %d",
			ErrNeverFits, sh.id, r.q, r.ready, sh.floor)}
	}
	if err := sh.idx.Commit(r.ready, r.dur, r.q); err != nil {
		return response{err: fmt.Errorf("resd: shard %d migrate-in commit: %w", sh.id, err)}
	}
	sh.walAppend(wal.Record{
		Type: wal.TMigrateIn, ID: uint64(r.id), Peer: uint32(r.peer),
		Start: int64(r.ready), Dur: int64(r.dur), Procs: r.q, Tenant: r.tenant,
	})
	sh.live[r.id] = active{
		start: r.ready, dur: r.dur, q: r.q,
		tenant: r.tenant, statKey: sh.tstatKey(r.tenant), pending: true, from: r.peer,
	}
	return response{}
}

// migrateOut releases the source copy of a migrating reservation and
// transfers its book entries out. ErrUnknownID means the reservation was
// cancelled between planning and execution — the executor's rollback
// signal. No quota is released: the charge moved with the reservation.
func (sh *shard) migrateOut(r request) response {
	a, ok := sh.live[r.id]
	if !ok || a.pending {
		return response{err: fmt.Errorf("%w: %#x not resident on shard %d", ErrUnknownID, uint64(r.id), sh.id)}
	}
	if err := sh.idx.Release(a.start, a.dur, a.q); err != nil {
		return response{err: fmt.Errorf("resd: shard %d migrate-out release: %w", sh.id, err)}
	}
	if sh.wlog != nil {
		sh.walAppend(wal.Record{Type: wal.TMigrateOut, ID: uint64(r.id), Peer: uint32(r.peer)})
		sh.openOuts[r.id] = r.peer
	}
	delete(sh.live, r.id)
	area := int64(a.dur) * int64(a.q)
	sh.area -= area
	ts := sh.tstats[a.statKey]
	ts.Active--
	ts.CommittedArea -= area
	ts.MigratedOut++
	sh.tstats[a.statKey] = ts
	sh.tenAreaCell(a.statKey).Add(-area)
	sh.migratedOut.Add(1)
	return response{}
}

// migrateCommit finalises a tentative migrated-in copy: it becomes an
// ordinary live reservation, entering the books it was kept out of while
// pending.
func (sh *shard) migrateCommit(r request) response {
	a, ok := sh.live[r.id]
	if !ok || !a.pending {
		return response{err: fmt.Errorf("%w: no pending migrate-in for %#x on shard %d", ErrBadRequest, uint64(r.id), sh.id)}
	}
	sh.walAppend(wal.Record{Type: wal.TMigrateCommit, ID: uint64(r.id)})
	a.pending = false
	a.from = 0
	sh.live[r.id] = a
	area := int64(a.dur) * int64(a.q)
	sh.area += area
	ts := sh.tstats[a.statKey]
	ts.Active++
	ts.CommittedArea += area
	ts.MigratedIn++
	sh.tstats[a.statKey] = ts
	sh.tenAreaCell(a.statKey).Add(area)
	sh.migratedIn.Add(1)
	return response{}
}

// migrateAbort rolls back a tentative migrated-in copy after the source
// reported the reservation gone (cancelled mid-migration): the capacity
// is released and the copy vanishes without ever having been visible.
func (sh *shard) migrateAbort(r request) response {
	a, ok := sh.live[r.id]
	if !ok || !a.pending {
		return response{err: fmt.Errorf("%w: no pending migrate-in for %#x on shard %d", ErrBadRequest, uint64(r.id), sh.id)}
	}
	if err := sh.idx.Release(a.start, a.dur, a.q); err != nil {
		return response{err: fmt.Errorf("resd: shard %d migrate-abort release: %w", sh.id, err)}
	}
	sh.walAppend(wal.Record{Type: wal.TMigrateAbort, ID: uint64(r.id)})
	delete(sh.live, r.id)
	return response{}
}

// migrateOutAck closes the shard's open-out for a move the target has
// durably committed. Idempotent, and a no-op without a WAL: the open-out
// set exists only for crash recovery.
func (sh *shard) migrateOutAck(r request) response {
	if sh.wlog != nil {
		if _, open := sh.openOuts[r.id]; open {
			sh.walAppend(wal.Record{Type: wal.TMigrateOutAck, ID: uint64(r.id)})
			delete(sh.openOuts, r.id)
		}
	}
	return response{}
}

// publish stores the load summary for lock-free readers (placement
// policies, Stats). Called once per batch — the group-commit point.
func (sh *shard) publish(n int) {
	sh.activeCount.Store(int64(len(sh.live)))
	sh.committedArea.Store(sh.area)
	sh.batches.Add(1)
	sh.ops.Add(uint64(n))
}

// stats assembles the published summary.
func (sh *shard) stats() ShardStats {
	return ShardStats{
		Active:           int(sh.activeCount.Load()),
		CommittedArea:    sh.committedArea.Load(),
		Admitted:         sh.admitted.Load(),
		Cancelled:        sh.cancelled.Load(),
		Rejected:         sh.rejected.Load(),
		RejectedDeadline: sh.rejectedDL.Load(),
		RejectedQuota:    sh.rejectedQuota.Load(),
		MigratedIn:       sh.migratedIn.Load(),
		MigratedOut:      sh.migratedOut.Load(),
		SlackP99:         core.Time(sh.slack.Quantile(0.99)),
		Batches:          sh.batches.Load(),
		Ops:              sh.ops.Load(),
	}
}
