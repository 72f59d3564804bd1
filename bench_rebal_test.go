package repro

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resd"
	"repro/internal/rng"
)

// --- live shard rebalancing under a skewed stream (BenchmarkRebalance rows of BENCH.json) ---
//
// The scenario is the one the rebalancer exists for: a skewed arrival
// stream (first-fit placement — the deliberately naive policy that piles
// everything onto shard 0, the service-level analogue of a Zipf-heavy
// tenant hammering one partition) preloads one hot shard while seven sit
// idle. Admission cost tracks the hot shard's index density, so the
// rebalancer-off baseline pays the full preload on every operation while
// the rebalancer-on configuration, having migrated the backlog across
// all eight shards, pays roughly an eighth of it. The off/on pair is the
// benchmark axis; the recorded improvement is the acceptance claim that
// skewed-load throughput recovers toward the balanced curve.

const (
	// rebalBenchM is each partition's processor count.
	rebalBenchM = 256
	// rebalBenchShards is the partition count; the skew parks the whole
	// preload on one of them.
	rebalBenchShards = 8
	// rebalBenchPreload is the size of the skewed backlog.
	rebalBenchPreload = 16384
	// rebalBenchHorizon is the time horizon the stream covers.
	rebalBenchHorizon = 1 << 20
)

// rebalServices memoizes services per (backend, rebalance) axis point:
// the skewed preload is expensive and both the measured loop
// (Reserve+Cancel pairs) and the steady-state rebalancer preserve the
// prepared shape, so calibration re-runs can reuse the service.
var (
	rebalSvcMu    sync.Mutex
	rebalServices = map[string]*resd.Service{}
)

// rebalLoadedService builds (or reuses) a service whose preload all sits
// on shard 0, then — on the rebalance=on axis — runs migration rounds to
// completion so the measured window sees the steady balanced state, with
// the background balancer keeping it there.
func rebalLoadedService(tb testing.TB, backend string, rebalance bool) *resd.Service {
	tb.Helper()
	key := fmt.Sprintf("%s/%v", backend, rebalance)
	rebalSvcMu.Lock()
	defer rebalSvcMu.Unlock()
	if svc, ok := rebalServices[key]; ok {
		return svc
	}
	// The threshold leaves the measured transient alone: 32 in-flight
	// clients park O(1M) processor·ticks on shard 0 at any instant, a
	// ~0.2 score bump over the drained steady state, and migrating work
	// that is about to be cancelled is pure thrash. 0.35 (drained to
	// ~0.175 by the balancer's hysteresis) balances the durable backlog
	// and ignores the churn.
	// MaxMoves stays small so a round that fires mid-measurement migrates
	// a bounded slice of the backlog: one huge round would stall the
	// single-writer loops for tens of milliseconds and turn the recorded
	// figure into a lottery over whether a round landed in the window.
	cfg := resd.Config{
		Shards: rebalBenchShards, M: rebalBenchM, Backend: backend,
		Placement: "first-fit", Batch: 64,
		RebalanceThreshold: 0.35, RebalanceMaxMoves: 128,
	}
	if rebalance {
		// A calm tick: the drained steady state only needs the cheap
		// imbalance pre-check, and a fast ticker racing the explicit
		// warmup drain below would interleave two planning rounds over
		// the same candidates and leave a run-to-run different state.
		cfg.RebalanceEvery = 25 * time.Millisecond
	}
	svc, err := resd.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	// The preload keeps per-reservation areas within ~2× of each other:
	// the planner balances committed area, and near-uniform areas make
	// area balance imply entry-count balance, which is what admission
	// cost actually tracks. (The measured ops still mix in near-full-width
	// requests; they just cancel straight away.)
	r := rng.New(0xB1A5)
	for i := 0; i < rebalBenchPreload; i++ {
		ready := core.Time(r.Int63n(rebalBenchHorizon))
		q := r.Intn(17) + 24
		dur := core.Time(r.Intn(21) + 60)
		if _, err := svc.Admit(resd.Request{Ready: ready, Q: q, Dur: dur, Deadline: resd.NoDeadline}); err != nil {
			tb.Fatal(err)
		}
	}
	if rebalance {
		// Drain the backlog migration before measuring: the bench records
		// the steady balanced state, not the one-off transfer.
		if _, err := svc.RebalanceAll(0); err != nil {
			tb.Fatal(err)
		}
	}
	rebalServices[key] = svc // retained for the process lifetime, by design
	return svc
}

// rebalBenchOp is one measured admission: Reserve at a random ready time
// and Cancel straight after, the same steady-state op BenchmarkResd uses.
// First-fit routes every request at the (formerly) hot shard 0, so the
// op's cost is exactly the per-shard density the rebalancer changes.
func rebalBenchOp(svc *resd.Service, r *rng.PCG) error {
	ready := core.Time(r.Int63n(rebalBenchHorizon))
	q := r.Intn(rebalBenchM/4) + 1
	if r.Bool(0.15) {
		q = rebalBenchM - 16 + r.Intn(16)
	}
	dur := core.Time(r.Intn(100) + 20)
	resv, err := svc.Admit(resd.Request{Ready: ready, Q: q, Dur: dur, Deadline: resd.NoDeadline})
	if err != nil {
		return err
	}
	return svc.Cancel(resv.ID)
}

// BenchmarkRebalance measures skewed-stream admission throughput with the
// rebalancer off (hot-shard baseline) and on (backlog migrated across all
// shards), on both capacity backends. Recorded in BENCH.json and gated
// by cmd/benchgate.
func BenchmarkRebalance(b *testing.B) {
	for _, backend := range []string{"array", "tree"} {
		for _, rebalance := range []bool{false, true} {
			mode := "off"
			if rebalance {
				mode = "on"
			}
			b.Run(fmt.Sprintf("backend=%s/rebalance=%s", backend, mode), func(b *testing.B) {
				svc := rebalLoadedService(b, backend, rebalance)
				var seq uint64
				b.SetParallelism(32)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rebalSvcMu.Lock()
					seq++
					r := rng.NewStream(77, seq)
					rebalSvcMu.Unlock()
					for pb.Next() {
						if err := rebalBenchOp(svc, r); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// TestEmitRebalBenchJSON records the off/on curve as the
// BenchmarkRebalance rows of BENCH.json. Opt-in (REPRO_EMIT_BENCH=1): it
// runs seconds of measured benchmarks. It also enforces the acceptance
// claim: under the skewed stream, enabling the rebalancer improves
// admission throughput over the rebalancer-off baseline on both backends.
func TestEmitRebalBenchJSON(t *testing.T) {
	if os.Getenv("REPRO_EMIT_BENCH") == "" {
		t.Skip("set REPRO_EMIT_BENCH=1 to measure rebalancing and write its BENCH.json rows")
	}
	measure := func(backend string, rebalance bool) float64 {
		svc := rebalLoadedService(t, backend, rebalance)
		var seq uint64
		res := testing.Benchmark(func(b *testing.B) {
			b.SetParallelism(32)
			b.RunParallel(func(pb *testing.PB) {
				rebalSvcMu.Lock()
				seq++
				r := rng.NewStream(77, seq)
				rebalSvcMu.Unlock()
				for pb.Next() {
					if err := rebalBenchOp(svc, r); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
		return float64(res.NsPerOp())
	}
	var rows []benchRow
	for _, backend := range []string{"array", "tree"} {
		off := measure(backend, false)
		on := measure(backend, true)
		rows = append(rows,
			benchRow{Name: fmt.Sprintf("backend=%s/rebalance=off", backend), NsPerOp: off},
			benchRow{Name: fmt.Sprintf("backend=%s/rebalance=on", backend), NsPerOp: on},
		)
		t.Logf("%s: off %.0f ns/op, on %.0f ns/op (%.2f×)", backend, off, on, off/on)
		if on >= off {
			t.Errorf("%s backend: rebalancer on is not faster than off (%.0f vs %.0f ns/op) — the acceptance claim fails", backend, on, off)
		}
	}
	recordBenchRows(t, "BenchmarkRebalance", rows)
}
