// Package resd is the reservation-admission service: the paper's offline
// model turned into a concurrent subsystem that admits a live stream of
// advance-reservation requests against a sharded cluster.
//
// # Shard model
//
// A Service owns S shards, each modelling one cluster partition of M
// processors. A shard's entire mutable state — its profile.CapacityIndex
// (array or tree backend), the table of admitted reservations, load
// counters — is confined to a single event-loop goroutine, so shard-local
// admission takes no locks: correctness comes from confinement, not
// mutual exclusion. Requests (Reserve, Cancel, Query, Snapshot) arrive on
// the shard's channel and are group-committed in batches: each event-loop
// turn drains up to Config.Batch pending requests, applies them all
// against the index, publishes the shard's load summary once, and only
// then releases the replies. Batching amortises the cross-goroutine
// synchronisation over many admissions, which is what lets throughput
// track the index cost rather than the channel cost under heavy traffic.
//
// # Placement
//
// Reserve requests are routed across shards by a pluggable placement
// policy, selected by Config.Placement (the names Placements lists):
//
//   - "first-fit" — scan shards in index order and admit on the first that
//     accepts. Simple, deterministic, and deliberately naive: it piles
//     load onto low-index shards.
//   - "least-loaded" — route to the shard with the smallest committed
//     area (the exact global minimum at the instant of routing).
//   - "p2c" — power-of-two-choices on free area: sample two distinct
//     shards and route to the one with more uncommitted area. The classic
//     load-balancing result applies: two random choices remove almost all
//     of the imbalance of one while touching O(1) shards per request.
//   - "pressure" — quota-aware placement: route by the requesting
//     tenant's own committed area per shard (its usage-to-budget pressure
//     there, the two orderings coinciding under the registry's equal
//     per-shard budget resolution), lowest first, total load breaking
//     ties. Each tenant's footprint is spread across partitions, so a
//     zipf-heavy tenant saturates no single shard and small tenants are
//     routed around the heavy hitters' hot spots.
//
// Policies read only the atomically published per-shard load summaries
// (including the per-tenant area mirrors "pressure" uses), so routing
// itself is lock-free; the routed shard re-validates inside its event
// loop, which makes stale routing information harmless (a shard never
// over-admits, a request at worst lands on a busier shard).
//
// # Admission rule
//
// Each shard enforces the paper's α-restriction (§4.2): a reservation is
// admitted only if, over its whole window, the capacity remaining after
// the admission stays at least ⌊α·M⌋ — the same floor
// workload.ReservationStream uses when drawing α-restricted streams. The
// earliest admissible start is found with a single FindSlot for
// q + ⌊α·M⌋ processors, so the α head-room falls out of the ordinary
// earliest-fit machinery.
//
// # The Request API
//
// Admit is the single admission entry point: one Request names the
// tenant the area is charged to, the ready time, the width, the
// duration, and the latest tolerable start (NoDeadline for "however
// late"). The same struct crosses the wire unchanged through
// reswire.Client.Admit, so in-process and remote callers share one
// admission vocabulary.
//
// # Deadline rejection
//
// A finite Request.Deadline extends the α rule with an SLA answer: the
// caller names the latest start it can tolerate, and a shard whose
// earliest feasible start on the α-prefix lands after that deadline
// rejects with ErrDeadline instead of pushing the reservation
// arbitrarily far back. The two
// rejection modes are complementary faces of the paper's parameter:
// ErrNeverFits is the static face of α (the width q plus the ⌊α·M⌋
// head-room can never fit inside M, at any time), while ErrDeadline is its
// dynamic face — α shrinks the prefix reservations may occupy, which
// pushes earliest starts later, and the deadline turns that lateness into
// an explicit reject the caller can act on. Smaller α (a wider admissible
// prefix) trades job-stream guarantees for fewer deadline rejections;
// larger α does the reverse. The service tries every shard in placement
// order before rejecting, prefers reporting ErrDeadline over ErrNeverFits
// (it tells the caller the request was feasible, just not soon enough),
// and counts deadline rejections separately in ShardStats.RejectedDeadline.
// A rejected request consumes no capacity.
//
// # Multi-tenant quotas
//
// Config.Quotas plugs a tenant.Registry in front of admission: every
// Admit (an empty Request.Tenant names the default tenant) is
// charged against its tenant's budgeted share of the reservable α-prefix
// area, hierarchically (tenant → group → global capacity). The check runs
// inside the shard loop after the α and deadline checks — a doomed
// request never burns budget — and the charge is a CAS against the
// registry's atomics, so the lock-free admission path stays lock-free. In
// hard mode an exhausted budget rejects with ErrQuota (wire:
// REJECTED_QUOTA), consuming no capacity, and the service stops its shard
// walk at once since budgets are global; in soft mode nothing is
// rejected, but each group-commit batch permutes its Reserve requests so
// the tenant with the lowest usage-to-budget ratio commits first,
// DRF-style weighted fair share at exactly the point where requests
// contend. Cancel credits the area back. Per-tenant books are kept twice,
// deliberately: the registry's lock-free accounts (global, what quota
// decisions read) and per-shard TenantStats inside each loop (consistent,
// what operators read); the stress tests assert the two agree. The quota
// layer may gate placement but never perturb it — a single tenant with a
// full budget replays to bit-identical sched.FCFS placements.
//
// # Live rebalancing and reservation migration
//
// Placement alone cannot undo history: a skewed arrival stream (or the
// deliberately naive first-fit policy) leaves some shards saturated while
// others idle, stranding reservable α-prefix area the admission rule says
// may be spent. The rebalancer (Config.RebalanceEvery, or Rebalance /
// RebalanceAll driven manually) is the first subsystem that mutates
// reservations after admission: it scores the committed-area spread
// across shards from the lock-free load summaries (rebal.Imbalance — a
// cheap atomic pre-check per tick when balanced), and past
// Config.RebalanceThreshold it plans migrations (internal/rebal, a pure
// deterministic planner) and executes each as a two-phase commit through
// the ordinary shard event loops: tentatively commit on the target
// (capacity held, the copy pending and invisible), forward the Cancel
// routing, release on the source, finalise on the target — or roll the
// tentative copy back when the reservation was cancelled mid-move.
// Capacity is conserved at every instant (the brief double-hold is the
// conservative overlap of any two-phase move), tenant quota is neither
// charged nor released (the original admission's charge rides along, so
// the registry ledger is untouched and nothing is double-counted), and
// per-shard tenant books transfer with the reservation. Reservations
// starting within Config.RebalanceFreeze ticks of the rebalancer's
// logical now are pinned — work about to start is never yanked between
// partitions. Migrated reservations keep their IDs: Cancel follows a
// forwarding overlay, waiting out any in-flight move, so handles never
// break. Rounds are serialized, cap their moves (RebalanceMaxMoves) so
// loops are never stalled by one huge transfer, plan with hysteresis
// (down to half the trigger threshold) so the balancer cannot oscillate
// around its own trigger, and back off exponentially when nothing is
// movable. BenchmarkRebalance (BENCH.json) records the payoff:
// under a first-fit-skewed stream, admission throughput recovers toward
// the balanced curve once the backlog migrates.
//
// # Start-time slack: the SLO metric
//
// Every admission records its start-time slack (admitted start − ready
// time): how far the α rule pushed the work back. Shards keep O(1)
// exponential histograms — an atomic shard-wide one readable off-loop
// and loop-owned per-tenant ones — and surface the 99th percentile as
// ShardStats.SlackP99 and TenantStats.SlackP99 (and over the wire in
// Stats entries), so operators see per-tenant SLO degradation directly
// rather than inferring it from rejection counts. The histograms are
// cumulative over the process lifetime — WAL replay restores the
// admission counters but not the samples, so resd_slack_ticks_count
// counts this process's admissions — and an attached SLO engine
// (ObsConfig.SLO) additionally answers windowed percentiles over its
// budget window — resd_slack_ticks_window — so a burst an hour ago
// stops dominating today's p99.
//
// # Durability and recovery
//
// Config.WAL gives every shard a write-ahead log (internal/wal): each
// group-commit batch appends its decisions to the shard's log buffer
// while it applies them, and the whole batch is flushed — and, under
// wal.SyncBatch, fsynced — once before any of its replies are released.
// Durability rides the turn the event loop already takes; it never adds
// a per-admission syscall. The record types mirror the shard
// transitions one to one:
//
//	admit (TAdmit)                    admission committed: the canonical Request plus assigned ID and start
//	cancel (TCancel)                  release of an admitted reservation
//	migrate-in (TMigrateIn)           two-phase move, target side: tentative copy durable, invisible until commit
//	migrate-out (TMigrateOut)         source released the reservation toward Peer; opens the source's "open out"
//	migrate-commit (TMigrateCommit)   target finalised the pending copy
//	migrate-abort (TMigrateAbort)     target rolled the pending copy back
//	migrate-out-ack (TMigrateOutAck)  source observed the outcome; pure recovery bookkeeping
//
// Every Options.SnapEvery records the shard snapshots its full state
// (reservation book, tenant accounts, open migration legs), rotates to
// a fresh log generation and deletes the generations the snapshot made
// redundant, bounding both disk and replay time.
//
// New replays before serving: newest decodable snapshot, then the
// surviving log suffix, re-committing each record through the same
// index operations live admission uses. The invariants the recovery
// tests pin:
//
//   - Exactness: the recovered service is bit-identical to the
//     pre-crash one — same IDs, same placements, same tenant books — on
//     either backend, with or without a snapshot anchor, and new
//     admissions never re-mint a recovered ID.
//   - Torn tails are silent: a crash mid-write (a cut frame or a
//     zero-filled tail) truncates the partial final record off the
//     disk, not just out of the replay (WALInfo.Torn counts it) — so
//     the verdict is stable across restarts and the tail can never be
//     reread as mid-log corruption after newer generations hold
//     acknowledged records. Any damage earlier than the tail — a CRC
//     mismatch, a torn frame in a pre-rotation generation — keeps the
//     longest intact prefix, repairs the directory to match (suffix
//     truncated, later generations quarantined), and surfaces in
//     WALInfo.Corrupt/DroppedBytes instead of failing the boot; a log
//     that contradicts itself (a cancel for an ID never admitted) does
//     fail New, because it means the writer, not the disk, was wrong.
//   - Mid-flight moves commit or abort, never duplicate. The executor
//     orders writes so the log decides: the tentative copy is durable
//     on the target before the source is asked to release, and the
//     source's migrate-out is durable before the commit is sent back.
//     At replay, a pending copy on T from S commits iff S's log shows
//     an open out naming T; every other combination aborts the copy
//     (the reservation stays where the source log says it is).
//     Resolutions are appended to the boot generation and synced, so a
//     second crash cannot resurrect a resolved move.
//   - Quota is recharged, not re-checked: recovery re-charges each
//     tenant's registry account for the reservations that survived
//     replay (they were admitted once; rejecting them now would lose
//     committed state).
//
// Replay rebuilds durable state only. Process-lifetime series —
// rejection counters, slack and loop-turn histograms, sampled traces —
// restart at zero, exactly as obs counters do across any restart.
// Service.WALInfo reports what replay found (records, snapshots, torn/
// corrupt damage, move resolutions, duration); resdsrv prints it as the
// boot banner and holds /healthz at 503 until replay finishes.
// BenchmarkWALOverhead (BENCH.json) prices the buffered machinery
// against the WAL-off baseline, with the batch-fsync figure recorded as
// the physical durable floor.
//
// # Observability
//
// Config.Obs attaches the service to the internal/obs registry. Every
// closure the service registers reads published atomics or channel
// lengths, never an event loop, so scrapes cost the hot path nothing;
// per-request admission tracing is sampled (ObsConfig.TraceSample) into
// a bounded ring served by Service.Traces and the wire protocol's Trace
// op, with a threshold-configurable slow-request hook. The families the
// service exposes:
//
//	resd_shard_queue_depth{shard}          gauge    requests waiting in the loop's queue
//	resd_shard_active{shard}               gauge    admitted reservations
//	resd_shard_committed_area{shard}       gauge    processor-tick area held
//	resd_shard_batches_total{shard}        counter  event-loop turns
//	resd_shard_ops_total{shard}            counter  requests served
//	resd_shard_ops_per_batch{shard}        gauge    realised group-commit factor
//	resd_admitted_total{shard}             counter  admissions
//	resd_cancelled_total{shard}            counter  cancellations
//	resd_rejected_total{shard,reason}      counter  reason ∈ capacity|deadline|quota
//	resd_migrated_total{shard,dir}         counter  dir ∈ in|out
//	resd_slack_ticks{shard,quantile}       summary  start-time slack p50/p90/p99
//	resd_loop_turn_ns{shard,quantile}      summary  batch apply+publish latency
//	resd_traces_sampled_total              counter  admissions sampled into the ring
//	resd_slow_requests_total               counter  sampled traces over the slow threshold
//	resd_logical_clock_ticks               gauge    Config.RebalanceNow's current value
//	resd_rebalance_rounds_total            counter  rebalancing rounds run
//	resd_rebalance_moves_total{result}     counter  result ∈ applied|aborted|skipped
//	resd_rebalance_imbalance{phase}        gauge    score around the last round (before|after)
//	resd_rebalance_backoff_skips           gauge    background balancer backoff state
//	tenant_quota_capacity                  gauge    registry capacity
//	tenant_quota_budget{tenant}            gauge    budgeted share
//	tenant_quota_used{tenant}              gauge    area currently charged
//	tenant_quota_inflight{tenant}          gauge    admissions currently held
//	tenant_quota_admitted_total{tenant}    counter  admissions
//	tenant_quota_rejected_total{tenant}    counter  hard-mode quota rejections
//
// A durable service (Config.WAL) adds the write-ahead-log families: the
// per-shard log counters, the fsync-latency summary, and the replay
// report — the gauges are WALInfo frozen at New, so a scrape or an
// alert sees a restart that found damage without anyone reading the
// boot banner:
//
//	resd_wal_bytes_total{shard}            counter  log bytes appended
//	resd_wal_records_total{shard}          counter  log records appended
//	resd_wal_fsyncs_total{shard}           counter  group-commit fsyncs
//	resd_wal_snapshots_total{shard}        counter  snapshot writes (log truncations)
//	resd_wal_failures_total{shard}         counter  write failures (shard degraded to non-durable)
//	resd_wal_generation{shard}             gauge    log generation being appended to
//	resd_wal_snapshot_age_seconds{shard}   gauge    age of the newest durable snapshot
//	resd_wal_fsync_ns{shard,quantile}      summary  group-commit fsync latency p50/p90/p99
//	resd_wal_replay_seconds                gauge    how long boot replay took
//	resd_wal_replayed_records              gauge    records replay applied
//	resd_wal_replayed_snapshots            gauge    snapshots replay loaded
//	resd_wal_torn_tails                    gauge    torn mid-write tails discarded
//	resd_wal_corrupt_records               gauge    checksum-failed records replay stopped at
//	resd_wal_dropped_bytes                 gauge    bytes replay could not apply
//	resd_wal_replayed_moves{outcome}       gauge    outcome ∈ committed|aborted
//
// An ObsConfig carrying an SLO engine (ObsConfig.SLO; see internal/slo
// for objective and burn-rate-rule semantics) adds the alerting
// families. The service counts each admission decision once — at the
// Request level, on the caller's goroutine, because a single request's
// placement walk can collect deadline rejections on several shards
// before one admits it, so summing per-shard counters would over-count
// — and binds those books plus the merged slack and loop-turn
// histograms to the engine; the engine snapshots them on its own
// ticker, never touching an event loop. Tenant-scoped objectives carry
// a tenant label:
//
//	resd_slo_attainment{objective}               gauge    good fraction over the budget window
//	resd_slo_error_budget_remaining{objective}   gauge    1 − errors/budget; negative = overspent
//	resd_slo_burn_rate{objective,window}         gauge    budget-burn multiple per rule window
//	resd_slo_alert_state{objective}              gauge    0 ok, 1 warn, 2 page
//	resd_slo_alert_transitions_total{objective}  counter  alert state changes
//	resd_slack_ticks_window{quantile}            summary  service-wide slack over the budget window
//	resd_loop_turn_ns_window{quantile}           summary  loop-turn latency over the budget window
//
// The reswire server and client add their own families (reswire_*; see
// internal/reswire), and resdsrv serves the whole set plus net/http/pprof
// on its -obs listener. The same published atomics the scrape families
// read also feed the wire protocol's Watch op: a
// subscriber gets server-pushed per-shard/tenant/WAL/trace/SLO
// telemetry frames at its chosen interval without polling Stats — see
// internal/reswire's package doc for the subscription semantics.
//
// # Heartbeats and node health
//
// ObsConfig.Flight arms the black-box flight recorder (internal/flight)
// around the service. Each shard loop stamps two atomics per
// group-commit turn — busy-since when a turn begins, last-beat when its
// replies are released — and New hands the recorder a probe function
// that snapshots those stamps, the loop queue depth, and the WAL fsync
// p99 for every shard, all from published atomics; the watchdog's
// monitor goroutine polls the probes on its own schedule and never
// touches an event loop. A turn wedged past the stall budget (or a
// backed-up queue no turn is draining) drives the node health
// healthy → degraded → stalled, each transition journaled, surfaced on
// /healthz as a warning and as the resd_health_state gauge, and — on
// worsening — captured as an on-disk diagnostic bundle (goroutine dump,
// heap profile, metrics snapshot, journal tail, WAL report, effective
// config). A turn slower than 100ms journals a slow-turn warning with
// its duration and batch size even when it never trips the watchdog.
//
// The same journal replaces the service's ad-hoc stderr prints: WAL
// write failures and replay verdicts, migration commits and aborts,
// rebalancer rounds and backoff, quota overflow-tenant activation all
// become structured events (flight_events_total{severity}) an operator
// reads from /debug/flight — see internal/flight's package doc for the
// journal format and the watchdog's exact rules. An ObsConfig carrying
// a SlowLog also gains resd_slow_log_dropped_total: the callback runs
// on a bounded dispatch queue (see the SlowLog field's contract), and
// the counter prices what a wedged or slow consumer missed.
//
// The package is exercised three ways: a determinism test replays a
// request stream serially through one shard and checks the placements are
// bit-for-bit the schedules sched.FCFS computes offline (with and without
// a quota registry); a stress test hammers a service from many goroutines
// under -race and asserts conservation of committed capacity, with a
// second stress pinning the quota invariant admitted-area ≤ budget at all
// times; and FuzzResdAdmission drives random op streams against a
// sequential oracle. cmd/resload replays synthetic or SWF-derived streams
// at a target rate — optionally as a zipf-skewed multi-tenant mix — and
// reports throughput and latency percentiles per tenant;
// BenchmarkResdThroughput and BenchmarkTenantThroughput (repository root)
// record the shard-scaling and quota-overhead curves as BENCH.json rows.
package resd
