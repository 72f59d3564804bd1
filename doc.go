// Package repro is a production-quality Go reproduction of
//
//	Lionel Eyraud-Dubois, Grégory Mounié, Denis Trystram,
//	"Analysis of Scheduling Algorithms with Reservations", IPDPS 2007.
//
// The repository implements the paper's model (rigid parallel jobs on m
// identical processors around advance reservations), the algorithm family
// it analyses (LSRC list scheduling, FCFS, conservative and EASY
// back-filling, shelf packing), exact solvers and lower bounds used as
// ratio references, every adversarial construction from the proofs, a
// workload substrate (SWF + synthetic), a discrete-event simulator, and an
// experiment harness that regenerates all four figures and every claim.
//
// All placement machinery runs against the profile.CapacityIndex seam,
// with two interchangeable backends: the flat sorted-array Timeline
// (internal/profile, the default) and a balanced augmented interval tree
// (internal/restree) whose subtree min/max-capacity aggregates give
// O(log n) admission and single-pass earliest-fit queries that decide
// whole subtrees at once. Every scheduler, the simulator and the CLIs
// accept -backend={array,tree}; the backends
// are proven equivalent by a differential fuzz harness and compared by
// the root-level BenchmarkCapacityIndex (results in BENCH.json —
// the tree is ~46× faster at 10^5 reservations).
//
// On top of that seam sits internal/resd, the concurrent
// reservation-admission service: S shards, each one cluster partition
// owning its own CapacityIndex behind a single-writer event loop
// (shard-local admission takes no locks), requests group-committed in
// batches per loop turn, and Reserve traffic routed across shards by
// pluggable placement policies (first-fit, least-loaded,
// power-of-two-choices on free area) with the paper's α-admission rule
// enforced per shard. Admission is deadline-aware: Admit rejects with
// ErrDeadline when the earliest feasible start on the α-prefix exceeds
// the caller's deadline, instead of pushing the reservation back.
// profile.Synchronized wraps an index for safe cross-goroutine reads
// (service snapshots), and BenchmarkResdThroughput records the
// shard-scaling curve in BENCH.json (≥3.5× admission throughput at
// 8 shards vs 1 on the tree backend, single-core). See examples/service
// for a walkthrough and the internal/resd package comment for the shard
// and placement model.
//
// The shards rebalance themselves: internal/rebal plans migrations of
// admitted future reservations off hot shards (a pure planner — the
// imbalance score is the committed-area spread, reservations starting
// inside a frozen window are pinned, candidate choice is weighted by
// per-tenant quota pressure) and resd executes each move as a two-phase
// commit through the shard event loops, conserving capacity at every
// instant and transferring — never double-counting — tenant quota;
// reservation handles survive migration via forwarded Cancel routing.
// The "pressure" placement policy closes the loop at admission time,
// routing each Reserve by the requesting tenant's own per-shard
// footprint, and every admission records its start-time slack, surfaced
// as p99 per shard and per tenant (the SLO face of the α rule).
// BenchmarkRebalance records skewed-stream throughput recovering toward
// the balanced curve in BENCH.json. See examples/rebal.
//
// Admission is multi-tenant: internal/tenant partitions the reservable
// α-prefix between tenants as hierarchical area budgets (tenant → group
// → global capacity) with lock-free accounting beside the shard load
// summaries. Hard mode rejects an over-budget admission with
// resd.ErrQuota; soft mode instead reorders each shard's group-commit
// batch by usage-to-budget ratio — DRF-style weighted fair share at the
// exact point where requests contend. Budgets compose with, never
// replace, the paper's α rule: quotas only decide which tenant spends
// the prefix the α rule left reservable. See internal/tenant and
// examples/tenant; BenchmarkTenantThroughput records in
// BENCH.json that the accounting stays flat in the tenant count.
//
// The outermost layer is the wire: internal/reswire serves resd over TCP
// with a length-prefixed binary protocol of exactly one revision (tenant
// ids on Reserve frames, QuotaGet/QuotaSet, migration counters and p99
// slack in Stats entries, sampled traces, Watch telemetry; a frame of any
// other revision is refused with ErrVersion). The request path is
//
//	client → reswire frames → server dispatch → resd shard event loops → CapacityIndex
//
// with typed error codes end to end (a REJECTED_DEADLINE frame surfaces
// as resd.ErrDeadline on the remote side, a REJECTED_QUOTA as
// tenant.ErrQuota) and write coalescing on both halves: the pipelining
// client multiplexes concurrent callers over a few connections and
// batches their frames into shared flushes, and the server batches
// responses the same way, so under load a syscall carries many messages
// and the shard loops see the same group-commit batches as in-process
// traffic. cmd/resdsrv is the server binary (-quotas loads a tenant
// budget spec); cmd/resload replays synthetic or SWF-derived request
// streams against either an in-process service or a live server (-addr),
// optionally as a zipf-skewed multi-tenant mix (-tenants/-skew),
// reporting wire-level latency percentiles per tenant with rejections
// split from hard errors; deterministic equivalence tests pin both
// modes to identical placements and an SWF trace replay to the serial
// admission baseline. FuzzWireCodec hardens the decoder against hostile
// bytes, and BenchmarkWireThroughput records the pipelining win in
// BENCH.json (≥2× the unpipelined configuration at 16 concurrent
// callers on one core). See examples/wire for the walkthrough.
//
// See README.md for a tour. The root-level benchmarks (bench_test.go)
// regenerate one figure each:
//
//	go test -bench=. -benchmem
package repro
