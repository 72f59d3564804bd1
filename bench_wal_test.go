package repro

import (
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/resd"
	"repro/internal/rng"
	"repro/internal/wal"
)

// --- WAL durability overhead (BenchmarkWALOverhead rows of BENCH.json) ---
//
// The WAL promises that durability rides the batch turn the shard loop
// already takes: records are appended to an in-memory buffer as decisions
// commit, and the whole batch is flushed (and, under SyncBatch, fsynced)
// once per drain — never one syscall per admission. BenchmarkWALOverhead
// prices that promise with the same preloaded Reserve+Cancel workload as
// BenchmarkResdThroughput, across three variants: no WAL, a buffered WAL
// (SyncNone: write() per batch, no fsync — the group-commit machinery
// alone), and a fully synced WAL (SyncBatch: one fsync per batch — the
// physical-disk floor, recorded but not ratio-gated because fsync latency
// is a property of the CI machine's storage, not of this code).

// walBenchSnapEvery keeps snapshot truncation in play without letting it
// dominate: one snapshot per shard every 64Ki records.
const walBenchSnapEvery = 1 << 16

// walServices memoizes the preloaded services per variant, exactly as
// obsServices does: preloading is seconds of work and the measured loop
// restores its own state. The WAL directories live in the OS temp dir and
// are retained for the process lifetime, by design — a benchmark-scoped
// TempDir would be removed between b.N calibration runs while the log is
// still appending.
var (
	walSvcMu    sync.Mutex
	walServices = map[string]*resd.Service{}
)

// walLoadedService returns the preloaded 4-shard tree service with the
// given durability variant: "off" (no WAL), "buffered" (SyncNone), or
// "fsync" (SyncBatch).
func walLoadedService(tb testing.TB, mode string) *resd.Service {
	tb.Helper()
	walSvcMu.Lock()
	defer walSvcMu.Unlock()
	if svc, ok := walServices[mode]; ok {
		return svc
	}
	cfg := resd.Config{
		Shards: 4, M: resdBenchM, Backend: "tree",
		Placement: "least-loaded", Batch: 64,
	}
	switch mode {
	case "buffered", "fsync":
		dir, err := os.MkdirTemp("", "resd-walbench-"+mode+"-*")
		if err != nil {
			tb.Fatal(err)
		}
		sync := wal.SyncNone
		if mode == "fsync" {
			sync = wal.SyncBatch
		}
		cfg.WAL = &wal.Options{Dir: dir, Sync: sync, SnapEvery: walBenchSnapEvery}
	}
	svc, err := resd.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(0xD1CE)
	for i := 0; i < resdBenchTotalRes; i++ {
		ready := core.Time(r.Int63n(resdBenchHorizon))
		q := r.Intn(resdBenchM/4) + 1
		if i%10 == 0 {
			q = resdBenchM - r.Intn(8) - 1
		}
		dur := core.Time(r.Intn(80) + 20)
		if _, err := svc.Admit(resd.Request{Ready: ready, Q: q, Dur: dur, Deadline: resd.NoDeadline}); err != nil {
			tb.Fatal(err)
		}
	}
	walServices[mode] = svc // retained for the process lifetime, by design
	return svc
}

// BenchmarkWALOverhead measures the admission path with durability off,
// buffered, and fully synced. The three sub-benchmarks run the identical
// workload; the buffered/off ratio is the whole cost of the group-commit
// machinery, and the fsync row is the end-to-end durable figure.
func BenchmarkWALOverhead(b *testing.B) {
	for _, mode := range []string{"off", "buffered", "fsync"} {
		b.Run("wal="+mode, func(b *testing.B) {
			svc := walLoadedService(b, mode)
			var seq uint64
			b.SetParallelism(32)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				walSvcMu.Lock()
				seq++
				r := rng.NewStream(43, seq)
				walSvcMu.Unlock()
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

// TestEmitWALBenchJSON records the off/buffered/fsync figures as the
// BenchmarkWALOverhead rows of BENCH.json: wal=buffered carries the
// ratio_to budget against wal=off, and wal=fsync is recorded, not gated
// (its figure tracks the machine's storage). Opt-in (REPRO_EMIT_BENCH=1).
// It also enforces the design claim directly: the group-commit machinery
// (everything but the physical fsync) must cost less than 50% of
// admission throughput.
func TestEmitWALBenchJSON(t *testing.T) {
	if os.Getenv("REPRO_EMIT_BENCH") == "" {
		t.Skip("set REPRO_EMIT_BENCH=1 to measure the WAL overhead and write its BENCH.json rows")
	}
	const maxOverhead = 1.5
	measure := func(mode string) float64 {
		svc := walLoadedService(t, mode)
		var seq uint64
		res := testing.Benchmark(func(b *testing.B) {
			b.SetParallelism(32)
			b.RunParallel(func(pb *testing.PB) {
				walSvcMu.Lock()
				seq++
				r := rng.NewStream(43, seq)
				walSvcMu.Unlock()
				for pb.Next() {
					if err := resdBenchOp(svc, r); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
		return float64(res.NsPerOp())
	}
	var rows []benchRow
	ns := map[string]float64{}
	for _, mode := range []string{"off", "buffered", "fsync"} {
		ns[mode] = measure(mode)
		rows = append(rows, benchRow{Name: "wal=" + mode, NsPerOp: ns[mode], RecordOnly: mode == "fsync"})
	}
	recordBenchRows(t, "BenchmarkWALOverhead", rows)
	overhead := ns["buffered"] / ns["off"]
	t.Logf("wal off %.0f ns/op, buffered %.0f ns/op (%.3f×), fsync %.0f ns/op (%.3f×)",
		ns["off"], ns["buffered"], overhead, ns["fsync"], ns["fsync"]/ns["off"])
	if overhead > maxOverhead {
		t.Errorf("buffered WAL overhead %.3f× exceeds the %.2f× budget", overhead, maxOverhead)
	}
}
