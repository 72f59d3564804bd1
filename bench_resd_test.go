package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/resd"
	"repro/internal/rng"
)

// --- resd admission-service throughput (BENCH_resd.json) ---
//
// The scenario is scale-out: a fixed reservation stream over a fixed time
// horizon is served by S cluster partitions, so each shard owns 1/S of
// the stream. Admission cost is dominated by the shard-local capacity
// index — segment lookups, mutations, and the blocking segments an
// earliest-fit query must skip — all of which shrink as the per-shard
// stream thins. On multi-core hardware the shards' event loops also run
// in parallel; the recorded curve on a single core isolates the index
// effect, which is the floor of the scaling, not its ceiling.

const (
	// resdBenchM is each partition's processor count.
	resdBenchM = 256
	// resdBenchTotalRes is the fixed total preloaded stream, split across
	// shards by least-loaded routing.
	resdBenchTotalRes = 32768
	// resdBenchHorizon is the fixed time horizon the stream covers.
	resdBenchHorizon = 1 << 20
)

// resdBenchShards is the shard-count axis of the benchmark.
var resdBenchShards = []int{1, 2, 4, 8}

// resdLoadedServices memoizes preloaded services per (backend, shards):
// preloading 2^15 reservations through a 1-shard array service costs
// seconds, and the measured loop (Reserve+Cancel pairs) restores the
// exact preloaded state, so calibration re-runs can reuse the service.
var (
	resdSvcMu    sync.Mutex
	resdServices = map[string]*resd.Service{}
)

// resdLoadedService returns the preloaded service for the configuration,
// building it on first use. The preload mirrors loadedIndex: moderate
// reservations with every tenth a near-full hold, so wide admissions see
// real blocking segments whose per-shard density falls as 1/S.
func resdLoadedService(tb testing.TB, backend string, shards int) *resd.Service {
	tb.Helper()
	key := fmt.Sprintf("%s/%d", backend, shards)
	resdSvcMu.Lock()
	defer resdSvcMu.Unlock()
	if svc, ok := resdServices[key]; ok {
		return svc
	}
	svc, err := resd.New(resd.Config{
		Shards: shards, M: resdBenchM, Backend: backend,
		Placement: "least-loaded", Batch: 64,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(0xD1CE)
	for i := 0; i < resdBenchTotalRes; i++ {
		ready := core.Time(r.Int63n(resdBenchHorizon))
		q := r.Intn(resdBenchM/4) + 1
		if i%10 == 0 {
			q = resdBenchM - r.Intn(8) - 1 // near-full hold
		}
		dur := core.Time(r.Intn(80) + 20)
		if _, err := svc.Admit(resd.Request{Ready: ready, Q: q, Dur: dur, Deadline: resd.NoDeadline}); err != nil {
			tb.Fatal(err)
		}
	}
	resdServices[key] = svc // retained for the process lifetime, by design
	return svc
}

// resdBenchOp is one measured admission: Reserve at a random ready time
// and Cancel straight after, keeping the service at its preloaded steady
// state. 15% of the requests are near-machine-wide: those are the ops
// whose earliest-fit must walk past blocked stretches, and the
// number of blockers between the ready time and the first adequate lull
// scales with the shard's stream density — the effect the shard axis is
// measuring.
func resdBenchOp(svc *resd.Service, r *rng.PCG) error {
	ready := core.Time(r.Int63n(resdBenchHorizon))
	q := r.Intn(resdBenchM/4) + 1
	if r.Bool(0.15) {
		q = resdBenchM - 16 + r.Intn(16)
	}
	dur := core.Time(r.Intn(100) + 20)
	resv, err := svc.Admit(resd.Request{Ready: ready, Q: q, Dur: dur, Deadline: resd.NoDeadline})
	if err != nil {
		return err
	}
	return svc.Cancel(resv.ID)
}

// BenchmarkResdThroughput measures admission throughput (Reserve+Cancel
// round trips through the shard event loops) across the shard axis on
// both capacity backends. 32 concurrent clients keep every shard's batch
// path busy. The tree backend's curve is the headline recorded in
// BENCH_resd.json: admission gets cheaper as the per-shard stream thins,
// on top of whatever parallelism the hardware adds.
func BenchmarkResdThroughput(b *testing.B) {
	for _, backend := range []string{"array", "tree"} {
		for _, shards := range resdBenchShards {
			b.Run(fmt.Sprintf("backend=%s/shards=%d", backend, shards), func(b *testing.B) {
				svc := resdLoadedService(b, backend, shards)
				var seq uint64
				b.SetParallelism(32)
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					resdSvcMu.Lock()
					seq++
					r := rng.NewStream(42, seq)
					resdSvcMu.Unlock()
					for pb.Next() {
						if err := resdBenchOp(svc, r); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// TestEmitResdBenchJSON records the shard-scaling curve as BENCH_resd.json
// at the repository root. Opt-in (REPRO_EMIT_BENCH=1): it runs seconds of
// measured benchmarks. It also enforces the scaling claim the service is
// built for: ≥2.5× admission throughput at 8 shards vs 1 on the tree
// backend.
func TestEmitResdBenchJSON(t *testing.T) {
	if os.Getenv("REPRO_EMIT_BENCH") == "" {
		t.Skip("set REPRO_EMIT_BENCH=1 to measure the service and write BENCH_resd.json")
	}
	type row struct {
		Backend     string  `json:"backend"`
		Shards      int     `json:"shards"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
		OpsPerSec   float64 `json:"ops_per_sec"`
		SpeedupVs1  float64 `json:"speedup_vs_1_shard"`
	}
	out := struct {
		Benchmark string `json:"benchmark"`
		M         int    `json:"m"`
		TotalRes  int    `json:"preloaded_reservations_total"`
		Horizon   int64  `json:"horizon_ticks"`
		Workload  string `json:"workload"`
		GoVersion string `json:"go_version"`
		MaxProcs  int    `json:"gomaxprocs"`
		Rows      []row  `json:"rows"`
	}{
		Benchmark: "resd sharded admission service: Reserve+Cancel throughput vs shard count",
		M:         resdBenchM,
		TotalRes:  resdBenchTotalRes,
		Horizon:   resdBenchHorizon,
		Workload: "fixed stream split across shards (least-loaded), 32 clients, " +
			"15% near-machine-wide requests; single-core numbers isolate the per-shard index cost",
		GoVersion: runtime.Version(),
		MaxProcs:  runtime.GOMAXPROCS(0),
	}
	measure := func(backend string, shards int) (float64, float64) {
		svc := resdLoadedService(t, backend, shards)
		var seq uint64
		res := testing.Benchmark(func(b *testing.B) {
			b.SetParallelism(32)
			b.RunParallel(func(pb *testing.PB) {
				resdSvcMu.Lock()
				seq++
				r := rng.NewStream(42, seq)
				resdSvcMu.Unlock()
				for pb.Next() {
					if err := resdBenchOp(svc, r); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
		return float64(res.NsPerOp()), float64(res.AllocsPerOp())
	}
	base := map[string]float64{}
	for _, backend := range []string{"array", "tree"} {
		for _, shards := range resdBenchShards {
			ns, allocs := measure(backend, shards)
			if shards == 1 {
				base[backend] = ns
			}
			out.Rows = append(out.Rows, row{
				Backend: backend, Shards: shards, NsPerOp: ns,
				AllocsPerOp: allocs,
				OpsPerSec:   1e9 / ns,
				SpeedupVs1:  base[backend] / ns,
			})
		}
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_resd.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Rows {
		t.Logf("%s shards=%d: %.0f ns/op (%.1f× vs 1 shard)", r.Backend, r.Shards, r.NsPerOp, r.SpeedupVs1)
		if r.Backend == "tree" && r.Shards == 8 && r.SpeedupVs1 < 2.5 {
			t.Errorf("tree backend at 8 shards is %.2f× the 1-shard throughput, want >= 2.5×", r.SpeedupVs1)
		}
	}
}
