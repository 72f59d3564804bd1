package resd

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/profile"
	"repro/internal/slo"
	"repro/internal/tenant"
	"repro/internal/wal"

	// Ensure the "tree" capacity backend is registered so services can be
	// configured with Backend: "tree".
	_ "repro/internal/restree"
)

// Errors returned by the service.
var (
	// ErrClosed reports an operation on a closed service.
	ErrClosed = errors.New("resd: service closed")
	// ErrNeverFits reports that no shard can ever admit the request: the
	// width plus the α head-room exceeds the partition size.
	ErrNeverFits = errors.New("resd: request can never be admitted")
	// ErrUnknownID reports a Cancel for a reservation that is not active
	// (never admitted, or already cancelled).
	ErrUnknownID = errors.New("resd: unknown reservation id")
	// ErrBadRequest reports malformed request parameters.
	ErrBadRequest = errors.New("resd: bad request")
	// ErrDeadline reports a deadline rejection: the request is feasible,
	// but the earliest admissible start on every shard's α-prefix lies
	// after the caller's deadline. The service rejects instead of pushing
	// the reservation arbitrarily far back, so callers get an SLA-style
	// accept/reject answer they can act on (retry elsewhere, relax the
	// deadline, shrink the request).
	ErrDeadline = errors.New("resd: earliest feasible start exceeds deadline")
)

// ErrQuota is tenant.ErrQuota re-exported: a hard-mode quota rejection.
// The request was α-feasible but its tenant (or the tenant's group) has
// exhausted its budgeted share of the reservable prefix; no capacity is
// consumed. errors.Is works against either name, on both sides of the
// wire (reswire's REJECTED_QUOTA code).
var ErrQuota = tenant.ErrQuota

// NoDeadline disables the deadline check in Admit: any admissible
// start, however late, is accepted.
const NoDeadline = core.Infinity

// ID identifies an admitted reservation service-wide. The owning shard is
// encoded in the top bits so Cancel routes without a global table.
type ID uint64

const shardBits = 16

// Shard returns the index of the shard that admitted the reservation.
func (id ID) Shard() int { return int(id >> (64 - shardBits)) }

func makeID(shard int, seq uint64) ID {
	return ID(uint64(shard)<<(64-shardBits) | (seq & (1<<(64-shardBits) - 1)))
}

// Reservation is an admitted reservation: the handle the service returns
// from Reserve and accepts in Cancel.
type Reservation struct {
	// ID is the service-wide identity (encodes the shard).
	ID ID
	// Shard is the cluster partition holding the reservation.
	Shard int
	// Start is the admitted start time (earliest admissible >= the
	// request's ready time).
	Start core.Time
	// Dur is the reservation length.
	Dur core.Time
	// Procs is the reservation width.
	Procs int
}

// End returns Start+Dur.
func (r Reservation) End() core.Time { return r.Start + r.Dur }

// Config parameterises a Service.
type Config struct {
	// Shards is the number of cluster partitions (default 1).
	Shards int
	// M is the processor count of each partition (required, >= 1).
	M int
	// Alpha is the admission rule: every shard keeps at least ⌊Alpha·M⌋
	// processors free of reservations at all times (0 disables the rule,
	// 1 rejects everything — the paper's α ∈ (0,1]). Must lie in [0,1].
	Alpha float64
	// Backend selects the capacity-index implementation per shard
	// ("" = array; "tree" = the restree balanced index).
	Backend string
	// Batch caps how many requests one event-loop turn group-commits
	// (default 64).
	Batch int
	// Placement routes Reserve requests across shards: "first-fit",
	// "least-loaded" or "p2c" (default "least-loaded").
	Placement string
	// Seed feeds the "p2c" policy's shard sampling (default 1).
	Seed uint64
	// Pre is a set of pre-existing reservations (maintenance windows,
	// prior commitments) committed to every shard before the service
	// starts, exempt from the α rule. An oversubscribing Pre fails New.
	Pre []core.Reservation
	// Quotas, when non-nil, partitions the reservable α-prefix between
	// tenants: every admission is charged against its tenant's budget in
	// the registry (hard mode rejects with ErrQuota; soft mode reorders
	// contending batches by fair share) and credited back on Cancel. Pre
	// reservations are exempt, like they are from the α rule. Nil
	// disables quota enforcement; per-tenant shard stats are kept either
	// way.
	Quotas *tenant.Registry
	// RebalanceEvery enables the background rebalancer: every interval a
	// planning round scores the committed-area spread across shards and
	// migrates admitted future reservations from hot shards to idle ones
	// (see Rebalance). 0 disables background rebalancing; Rebalance may
	// still be called manually.
	RebalanceEvery time.Duration
	// RebalanceThreshold is the imbalance score (rebal.Imbalance:
	// 1 − min/max of committed area) below which a round does nothing.
	// 0 selects DefaultRebalanceThreshold; must lie in [0,1]. An exact
	// act-on-any-imbalance trigger is therefore not expressible — pass a
	// tiny positive epsilon instead (the CLIs reject an explicit 0 for
	// the same reason, rather than silently running at the default).
	RebalanceThreshold float64
	// RebalanceFreeze is the migratable-window policy Δ: a reservation
	// starting before now+Δ is never moved, so work about to begin cannot
	// be yanked between shards at the last instant. Must be >= 0.
	RebalanceFreeze core.Time
	// RebalanceMaxMoves caps migrations per round (0 selects
	// DefaultRebalanceMaxMoves).
	RebalanceMaxMoves int
	// RebalanceNow supplies the logical "now" the background balancer
	// freezes against. Nil means a zero clock: only [0, RebalanceFreeze)
	// is frozen. Embedders whose tick origin advances (e.g. mapping wall
	// time onto ticks) plug their clock in here; resdsrv defaults it to a
	// monotonic wall-clock-per-tick source and obs surfaces the current
	// value as the resd_logical_clock_ticks gauge.
	RebalanceNow func() core.Time
	// Obs attaches the service to the observability layer: metric
	// registration at New and sampled admission tracing (see ObsConfig).
	// Nil disables both — the hot path then pays only dead nil checks.
	Obs *ObsConfig
	// turnHook, when non-nil, is called by every shard loop at the top of
	// each batch turn, after the heartbeat's busy stamp. Unexported: a
	// test seam for wedging a loop deliberately (the watchdog tests), set
	// before New so the loop goroutine reads it without a race.
	turnHook func(shard int)
	// WAL, when non-nil, makes every shard durable: admission decisions
	// are written to a per-shard write-ahead log in WAL.Dir (group-
	// committed with the batch turn, one fsync per batch under the
	// default sync mode) and New replays whatever the directory holds,
	// rebuilding the exact pre-crash state — IDs, placements, books and
	// quota charges included — before serving. See internal/wal and this
	// package's doc.go for the format and the recovery invariants. Nil
	// keeps the service purely in-memory.
	WAL *wal.Options
}

// Rebalancer defaults, applied by Config.normalize when the fields are
// zero.
const (
	DefaultRebalanceThreshold = 0.1
	DefaultRebalanceMaxMoves  = 64
)

// normalize fills defaults and validates.
func (c Config) normalize() (Config, error) {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 || c.Shards > 1<<shardBits {
		return c, fmt.Errorf("%w: Shards=%d outside [1,%d]", ErrBadRequest, c.Shards, 1<<shardBits)
	}
	if c.M < 1 {
		return c, fmt.Errorf("%w: M=%d, need >= 1", ErrBadRequest, c.M)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return c, fmt.Errorf("%w: Alpha=%v outside [0,1]", ErrBadRequest, c.Alpha)
	}
	if c.Batch == 0 {
		c.Batch = 64
	}
	if c.Batch < 1 {
		return c, fmt.Errorf("%w: Batch=%d, need >= 1", ErrBadRequest, c.Batch)
	}
	if c.Placement == "" {
		c.Placement = "least-loaded"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RebalanceEvery < 0 {
		return c, fmt.Errorf("%w: RebalanceEvery=%v, need >= 0", ErrBadRequest, c.RebalanceEvery)
	}
	if c.RebalanceThreshold < 0 || c.RebalanceThreshold > 1 {
		return c, fmt.Errorf("%w: RebalanceThreshold=%v outside [0,1]", ErrBadRequest, c.RebalanceThreshold)
	}
	if c.RebalanceThreshold == 0 {
		c.RebalanceThreshold = DefaultRebalanceThreshold
	}
	if c.RebalanceFreeze < 0 {
		return c, fmt.Errorf("%w: RebalanceFreeze=%v, need >= 0", ErrBadRequest, c.RebalanceFreeze)
	}
	if c.RebalanceMaxMoves < 0 {
		return c, fmt.Errorf("%w: RebalanceMaxMoves=%d, need >= 0", ErrBadRequest, c.RebalanceMaxMoves)
	}
	if c.RebalanceMaxMoves == 0 {
		c.RebalanceMaxMoves = DefaultRebalanceMaxMoves
	}
	if c.WAL != nil {
		w, err := c.WAL.Normalize()
		if err != nil {
			return c, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		c.WAL = &w
	}
	return c, nil
}

// Service is the sharded reservation-admission service. All methods are
// safe for concurrent use; Close must be called exactly once, after which
// every method returns ErrClosed.
type Service struct {
	cfg    Config
	floor  int // ⌊α·M⌋ processors every shard keeps free of reservations
	shards []*shard
	place  *placement
	quit   chan struct{}

	// moved forwards Cancel routing for migrated reservations: ID → the
	// shard currently holding it. An ID's own shard bits always name the
	// admitting shard; once the rebalancer moves the reservation, this
	// overlay names its live home. Entries are dropped when the
	// reservation is cancelled.
	moved sync.Map // ID → int

	// balMu serializes rebalancing rounds. Two concurrent rounds could
	// plan from the same snapshot and race each other's two-phase moves —
	// worst case, one round's rollback deletes the forwarding entry the
	// other round just published, stranding a live reservation where
	// Cancel cannot find it. One round at a time makes plan+execute
	// atomic with respect to other rounds (client traffic still flows
	// freely; only rounds exclude each other).
	balMu sync.Mutex

	// tracer samples Admit calls into a bounded ring (nil when
	// Config.Obs leaves tracing off).
	tracer *tracer

	// flight is the attached flight recorder and journal its event
	// journal (both nil when ObsConfig.Flight is unset). New attaches the
	// recorder's watchdog to the shard heartbeats; Close detaches it
	// before the loops exit so the monitor never reads a dead service.
	flight  *flight.Recorder
	journal *flight.Journal

	// slo is the armed SLO engine and sloBook its request-level decision
	// counters (both nil when ObsConfig.SLO is unset). New binds every
	// objective and starts the engine; Close stops it. The book is
	// written by Admit on caller goroutines — see internal/resd/slo.go
	// for why the per-shard counters cannot serve the deadline
	// objectives.
	slo     *slo.Engine
	sloBook *sloBook

	// walInfo records what WAL recovery found and did at New (zero when
	// the service runs without a WAL).
	walInfo WALInfo

	// walLogs holds each shard's log handle as it was at New, for
	// scrape/watch reads: the loop nils sh.wlog when the log fails, and
	// readers outside the loop must not race that write (a degraded
	// shard's frozen counters are still worth exposing). Index i is
	// shard i; nil when the service runs without a WAL.
	walLogs []*wal.Log

	// Rebalancer telemetry, published for obs scrapes: cumulative round
	// and per-outcome move counters, the imbalance scores around the last
	// round (Float64bits), and the background loop's current backoff.
	balRounds  atomic.Uint64
	balApplied atomic.Uint64
	balAborted atomic.Uint64
	balSkipped atomic.Uint64
	balBefore  atomic.Uint64
	balAfter   atomic.Uint64
	balBackoff atomic.Int64
}

// New builds the shards (each pre-loaded with cfg.Pre), starts their event
// loops, and returns the running service. With Config.WAL set, New first
// recovers whatever the log directory holds — replaying every shard's
// snapshot and records, resolving moves the crash left mid-flight, and
// re-charging the quota registry — so the returned service is the
// pre-crash service, continued. Recovery runs to completion before New
// returns; a server should not report ready until it does.
func New(cfg Config) (*Service, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:    cfg,
		floor:  int(cfg.Alpha * float64(cfg.M)),
		quit:   make(chan struct{}),
		tracer: newTracer(cfg.Obs),
	}
	if cfg.Obs != nil && cfg.Obs.Flight != nil {
		s.flight = cfg.Obs.Flight
		s.journal = s.flight.Journal()
		if cfg.WAL != nil {
			// Route the log layer's own events (rotation, snapshots,
			// damage) into the same journal. normalize already gave the
			// service a private Options copy, so this mutation is local.
			cfg.WAL.Journal = s.journal
		}
	}
	s.place, err = placementByName(cfg.Placement, cfg.Seed)
	if err != nil {
		return nil, err
	}
	seeds, walInfo, err := recoverShards(cfg)
	if err != nil {
		return nil, err
	}
	s.walInfo = walInfo
	for i := 0; i < cfg.Shards; i++ {
		var seed *shardSeed
		if seeds != nil {
			seed = seeds[i]
		}
		sh, err := newShard(i, cfg, s.floor, s.quit, seed)
		if err != nil {
			close(s.quit)
			for _, prev := range s.shards {
				prev.wait() // each loop seals its own log on exit
			}
			if seeds != nil {
				for _, sd := range seeds[i:] { // loops never started: seal here
					if sd.log != nil {
						sd.log.Close()
					}
				}
			}
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	// A recovered reservation keeps its original ID, whose shard bits
	// name the admitting shard — rebuild the forwarding overlay for the
	// ones a pre-crash rebalance left living elsewhere.
	if seeds != nil {
		for i, sd := range seeds {
			for id := range sd.live {
				if id.Shard() != i {
					s.moved.Store(id, i)
				}
			}
		}
	}
	if s.walInfo.Enabled {
		s.walLogs = make([]*wal.Log, len(s.shards))
		for i := range s.shards {
			s.walLogs[i] = s.shards[i].wlog
		}
	}
	if cfg.Obs != nil {
		s.registerObs()
	}
	if cfg.RebalanceEvery > 0 && cfg.Shards > 1 {
		go s.balanceLoop()
	}
	if s.flight != nil {
		s.flight.Attach(flight.Sources{
			Shards: s.flightProbes,
			Traces: func() any { return s.Traces(0) },
			WAL: func() any {
				return struct {
					Info  WALInfo         `json:"info"`
					Stats []WALShardStats `json:"stats,omitempty"`
				}{s.WALInfo(), s.WALStats()}
			},
		})
	}
	if cfg.Obs != nil && cfg.Obs.SLO != nil {
		if err := s.attachSLO(cfg.Obs.SLO); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// flightProbes snapshots every shard's heartbeat for the flight
// watchdog: published atomics and a channel-length read, no event-loop
// round trips — the monitor can probe a wedged loop.
func (s *Service) flightProbes() []flight.ShardProbe {
	out := make([]flight.ShardProbe, len(s.shards))
	for i, sh := range s.shards {
		p := flight.ShardProbe{
			Shard:    i,
			QueueLen: len(sh.reqs),
			QueueCap: cap(sh.reqs),
		}
		if v := sh.lastBeat.Load(); v != 0 {
			p.LastTurn = time.Unix(0, v)
		}
		if v := sh.busySince.Load(); v != 0 {
			p.BusySince = time.Unix(0, v)
		}
		if s.walLogs != nil && s.walLogs[i] != nil {
			p.FsyncP99 = time.Duration(s.walLogs[i].FsyncQuantile(0.99))
		}
		out[i] = p
	}
	return out
}

// Shards returns the number of partitions.
func (s *Service) Shards() int { return len(s.shards) }

// M returns the per-partition processor count.
func (s *Service) M() int { return s.cfg.M }

// Floor returns the α-rule capacity floor ⌊α·M⌋ enforced on every shard.
func (s *Service) Floor() int { return s.floor }

// Placement returns the routing policy's name.
func (s *Service) Placement() string { return s.place.name() }

// Quotas returns the quota registry the service enforces, or nil when
// quotas are disabled.
func (s *Service) Quotas() *tenant.Registry { return s.cfg.Quotas }

// Cancel releases an admitted reservation, returning its capacity to the
// shard currently holding it — which, once the rebalancer has migrated
// the reservation, is no longer the shard encoded in the ID: Cancel
// follows the service's forwarding overlay, and a Cancel racing an
// in-flight migration waits the move out (the two-phase protocol keeps a
// pending copy uncancellable, so the release happens exactly once, on
// exactly one shard). Cancelling an unknown or already-cancelled ID
// returns ErrUnknownID.
func (s *Service) Cancel(id ID) error {
	if id.Shard() >= len(s.shards) {
		return fmt.Errorf("%w: %#x names shard %d of %d", ErrUnknownID, uint64(id), id.Shard(), len(s.shards))
	}
	for {
		si := id.Shard()
		fwd, forwarded := s.moved.Load(id)
		if forwarded {
			si = fwd.(int)
		}
		_, err := s.shards[si].do(request{kind: opCancel, id: id})
		switch {
		case err == nil:
			if forwarded {
				s.moved.Delete(id)
			}
			return nil
		case errors.Is(err, errMigratePending):
			// The reservation is mid-migration onto this shard; the
			// executor resolves the move promptly (or the service closes,
			// turning the retry into ErrClosed).
			runtime.Gosched()
		case errors.Is(err, ErrUnknownID):
			// Not here. If the forwarding overlay has (re)appeared and
			// points somewhere we have not just tried, the reservation
			// migrated underneath us — follow it. Otherwise it is really
			// gone.
			if v, ok := s.moved.Load(id); ok && v.(int) != si {
				continue
			}
			return err
		default:
			return err
		}
	}
}

// Query returns the capacity available at time t on every shard (index i
// is shard i). The per-shard answers are each exact at the instant their
// shard's event loop served them; across shards the slice is a loose
// snapshot, as any cross-partition view under concurrent traffic must be.
func (s *Service) Query(t core.Time) ([]int, error) {
	if t < 0 {
		return nil, fmt.Errorf("%w: Query(%v)", ErrBadRequest, t)
	}
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		resp, err := sh.do(request{kind: opQuery, ready: t})
		if err != nil {
			return nil, err
		}
		out[i] = resp.free
	}
	return out, nil
}

// Snapshot returns an independent copy of one shard's capacity index,
// wrapped in profile.Synchronized so the caller may share it across
// goroutines. The copy is consistent (taken inside the event loop, between
// batches) and immediately stale, like any snapshot of a live system.
func (s *Service) Snapshot(shard int) (*profile.Synchronized, error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, fmt.Errorf("%w: shard %d of %d", ErrBadRequest, shard, len(s.shards))
	}
	resp, err := s.shards[shard].do(request{kind: opSnapshot})
	if err != nil {
		return nil, err
	}
	return profile.NewSynchronized(resp.snap), nil
}

// ShardStats is one shard's load summary.
type ShardStats struct {
	// Active is the number of currently admitted reservations.
	Active int
	// CommittedArea is the processor-tick area held by active
	// reservations (excluding Pre).
	CommittedArea int64
	// Admitted, Cancelled and Rejected count operations since start
	// (Rejected counts α-rule/capacity rejections only).
	Admitted, Cancelled, Rejected uint64
	// RejectedDeadline counts deadline rejections: requests that were
	// feasible on the shard but whose earliest start exceeded the
	// caller's deadline.
	RejectedDeadline uint64
	// RejectedQuota counts hard-mode quota rejections: requests that were
	// feasible on the shard but whose tenant had exhausted its budgeted
	// share of the reservable prefix.
	RejectedQuota uint64
	// MigratedIn and MigratedOut count reservations the rebalancer moved
	// onto and off the shard since start.
	MigratedIn, MigratedOut uint64
	// SlackP99 is the 99th-percentile start-time slack (admitted start −
	// ready time, in ticks) over the shard's admissions in this process
	// (WAL replay restores the counters, not the samples): the per-shard SLO
	// view of how far the α rule pushes work back. Estimated from an
	// exponential histogram — the reported value is at least the true p99
	// and less than twice it.
	SlackP99 core.Time
	// Batches and Ops count event-loop turns and requests served; Ops /
	// Batches is the realised group-commit factor.
	Batches, Ops uint64
}

// TenantStats is one shard's load summary for one tenant — the per-tenant
// slice of ShardStats, served consistently from inside the shard's event
// loop.
type TenantStats struct {
	// Active is the number of this tenant's currently held reservations
	// on the shard.
	Active int
	// CommittedArea is the processor-tick area those reservations hold.
	CommittedArea int64
	// Admitted, Cancelled and RejectedQuota count this tenant's
	// operations on the shard since start.
	Admitted, Cancelled, RejectedQuota uint64
	// MigratedIn and MigratedOut count this tenant's reservations the
	// rebalancer moved onto and off the shard.
	MigratedIn, MigratedOut uint64
	// SlackP99 is the tenant's 99th-percentile start-time slack on this
	// shard (see ShardStats.SlackP99): the per-tenant SLO metric.
	SlackP99 core.Time
}

// TenantStats returns one shard's per-tenant load summaries. The copy is
// taken inside the shard's event loop, between batches, so it is
// internally consistent (unlike Stats, which reads loosely-published
// atomics).
func (s *Service) TenantStats(shard int) (map[string]TenantStats, error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, fmt.Errorf("%w: shard %d of %d", ErrBadRequest, shard, len(s.shards))
	}
	resp, err := s.shards[shard].do(request{kind: opTenantStats})
	if err != nil {
		return nil, err
	}
	return resp.tstats, nil
}

// TenantTotals sums TenantStats across every shard: the service-wide
// per-tenant ledger as the shards see it (the quota registry keeps the
// same numbers lock-free; the two views must agree whenever the service
// is quiescent, which the stress tests assert).
func (s *Service) TenantTotals() (map[string]TenantStats, error) {
	out := make(map[string]TenantStats)
	for i := range s.shards {
		st, err := s.TenantStats(i)
		if err != nil {
			return nil, err
		}
		for name, ts := range st {
			tot := out[name]
			tot.Active += ts.Active
			tot.CommittedArea += ts.CommittedArea
			tot.Admitted += ts.Admitted
			tot.Cancelled += ts.Cancelled
			tot.RejectedQuota += ts.RejectedQuota
			tot.MigratedIn += ts.MigratedIn
			tot.MigratedOut += ts.MigratedOut
			// Percentiles do not sum; the max across shards is a sound
			// upper bound on the service-wide p99.
			if ts.SlackP99 > tot.SlackP99 {
				tot.SlackP99 = ts.SlackP99
			}
			out[name] = tot
		}
	}
	return out, nil
}

// WALInfo reports what WAL recovery found and did when the service was
// built (Enabled false when the service runs without a WAL).
func (s *Service) WALInfo() WALInfo { return s.walInfo }

// QueueDepths returns every shard's instantaneous event-loop queue
// length (index i is shard i) — a channel-length read, no event-loop
// round trip. The live-telemetry view of admission back-pressure.
func (s *Service) QueueDepths() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		out[i] = len(sh.reqs)
	}
	return out
}

// WALShardStats is one shard's live write-ahead-log counters, as
// WALStats reports them for scrapes and Watch subscribers.
type WALShardStats struct {
	// Shard is the partition index.
	Shard int
	// Gen is the log generation currently being appended to.
	Gen uint64
	// Bytes and Records count appends since the log opened.
	Bytes, Records uint64
	// Fsyncs counts group-commit fsyncs; Snapshots counts completed
	// snapshot writes (log truncations).
	Fsyncs, Snapshots uint64
	// FsyncP99 is the 99th-percentile fsync latency in nanoseconds.
	FsyncP99 int64
	// Failed counts WAL write failures (a failed log degrades the shard
	// to non-durable; its other counters freeze at that point).
	Failed uint64
}

// WALStats returns every durable shard's live log counters, read from
// published atomics (nil when the service runs without a WAL). A shard
// that degraded after a log failure keeps reporting its frozen counters
// with Failed > 0.
func (s *Service) WALStats() []WALShardStats {
	if s.walLogs == nil {
		return nil
	}
	out := make([]WALShardStats, 0, len(s.walLogs))
	for i, wl := range s.walLogs {
		if wl == nil {
			continue
		}
		st := wl.Stats()
		out = append(out, WALShardStats{
			Shard:     i,
			Gen:       st.Gen,
			Bytes:     st.Bytes,
			Records:   st.Records,
			Fsyncs:    st.Fsyncs,
			Snapshots: st.Snapshots,
			FsyncP99:  wl.FsyncQuantile(0.99),
			Failed:    s.shards[i].walFailed.Load(),
		})
	}
	return out
}

// TraceCounts returns the admission-tracing counters: how many requests
// were sampled into the trace ring and how many of those met the slow
// threshold. Zero when tracing is disabled.
func (s *Service) TraceCounts() (sampled, slow uint64) {
	if s.tracer == nil {
		return 0, 0
	}
	return s.tracer.sampled.Load(), s.tracer.slowSeen.Load()
}

// Dump returns every committed reservation currently live on one shard,
// sorted by ID. The list is consistent (served from inside the shard's
// event loop between batches); a copy mid-way through a two-phase move
// is excluded until the move commits. It is the recovery oracle's view:
// a service restarted over its WAL must Dump identically to the service
// that wrote it.
func (s *Service) Dump(shard int) ([]Reservation, error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, fmt.Errorf("%w: shard %d of %d", ErrBadRequest, shard, len(s.shards))
	}
	resp, err := s.shards[shard].do(request{kind: opMigratable, ready: 0})
	if err != nil {
		return nil, err
	}
	out := make([]Reservation, 0, len(resp.cands))
	for _, c := range resp.cands {
		out = append(out, Reservation{ID: ID(c.ID), Shard: shard, Start: c.Start, Dur: c.Dur, Procs: c.Procs})
	}
	return out, nil
}

// Stats returns per-shard load summaries from the atomically published
// counters (no event-loop round trip; the numbers may trail in-flight
// batches by one turn).
func (s *Service) Stats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.stats()
	}
	return out
}

// Close stops every shard's event loop and waits for them to exit.
// In-flight and subsequent requests fail with ErrClosed.
func (s *Service) Close() {
	if s.slo != nil {
		// Stop the SLO ticks first: the engine only reads published
		// atomics, but a tick racing shutdown could journal a spurious
		// transition from a half-drained service.
		s.slo.Stop()
	}
	if s.flight != nil {
		// Stop the watchdog before the loops exit, so shutdown is never
		// judged a stall.
		s.flight.Detach()
	}
	close(s.quit)
	for _, sh := range s.shards {
		sh.wait()
	}
	s.tracer.close()
}
