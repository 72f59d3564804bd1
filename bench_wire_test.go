package repro

import (
	"fmt"
	"net"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/resd"
	"repro/internal/reswire"
	"repro/internal/rng"
)

// --- reswire throughput over loopback (BenchmarkWireThroughput rows of BENCH.json) ---
//
// The scenario is the wire tax: the same Reserve+Cancel admission round
// trip as BenchmarkResdThroughput, but through the reswire protocol over
// a loopback TCP connection. The axes are concurrent client goroutines
// (1/4/16, multiplexed over one shared connection) and pipelining on/off. With
// pipelining off every request pays a full write-flush-wait round trip —
// the classic RPC shape; with it on, concurrent callers' frames share
// flushes on both sides, so the syscall cost amortises across whatever
// is in flight. The recorded claim is that at 16 clients pipelining buys
// at least 2× the unpipelined throughput.

const (
	wireBenchM       = 256
	wireBenchShards  = 4
	wireBenchPreload = 4096
	wireBenchHorizon = 1 << 18
	wireBenchConns   = 1
)

var wireBenchClients = []int{1, 4, 16}

// wireBenchEndpoint memoizes one preloaded service + loopback server for
// the whole bench process (mirrors resdLoadedService): the measured loop
// is Reserve+Cancel pairs, which restore the preloaded state exactly.
var (
	wireBenchMu   sync.Mutex
	wireBenchAddr string
)

func wireBenchEndpoint(tb testing.TB) string {
	tb.Helper()
	wireBenchMu.Lock()
	defer wireBenchMu.Unlock()
	if wireBenchAddr != "" {
		return wireBenchAddr
	}
	svc, err := resd.New(resd.Config{
		Shards: wireBenchShards, M: wireBenchM, Backend: "tree",
		Placement: "least-loaded", Batch: 64,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(0xD1CE)
	for i := 0; i < wireBenchPreload; i++ {
		ready := core.Time(r.Int63n(wireBenchHorizon))
		q := r.Intn(wireBenchM/4) + 1
		if i%10 == 0 {
			q = wireBenchM - r.Intn(8) - 1 // near-full hold
		}
		dur := core.Time(r.Intn(80) + 20)
		if _, err := svc.Admit(resd.Request{Ready: ready, Q: q, Dur: dur, Deadline: resd.NoDeadline}); err != nil {
			tb.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go reswire.NewServer(svc).Serve(ln) // retained for the process lifetime, by design
	wireBenchAddr = ln.Addr().String()
	return wireBenchAddr
}

// wireBenchOp is one measured admission round trip: Reserve at a random
// ready time and Cancel straight after, both over the wire.
func wireBenchOp(c *reswire.Client, r *rng.PCG) error {
	ready := core.Time(r.Int63n(wireBenchHorizon))
	q := r.Intn(wireBenchM/4) + 1
	dur := core.Time(r.Intn(100) + 20)
	resv, err := c.Admit(resd.Request{Ready: ready, Q: q, Dur: dur, Deadline: resd.NoDeadline})
	if err != nil {
		return err
	}
	return c.Cancel(resv.ID)
}

// runWireBench drives b.N admission round trips from the given number of
// client goroutines through one client (Conns fixed at wireBenchConns).
func runWireBench(b *testing.B, clients int, pipeline bool) {
	addr := wireBenchEndpoint(b)
	c, err := reswire.Dial(addr, reswire.Options{Conns: wireBenchConns, Pipeline: pipeline})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		n := b.N / clients
		if g < b.N%clients {
			n++
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			r := rng.NewStream(42, uint64(g+1))
			for i := 0; i < n; i++ {
				if err := wireBenchOp(c, r); err != nil {
					b.Error(err)
					return
				}
			}
		}(g, n)
	}
	wg.Wait()
}

func onoff(pipeline bool) string {
	if pipeline {
		return "on"
	}
	return "off"
}

// BenchmarkWireThroughput measures wire-level admission throughput across
// the client-count and pipelining axes. Both pipelining settings are
// recorded in BENCH.json and gated in CI by cmd/benchgate.
func BenchmarkWireThroughput(b *testing.B) {
	for _, clients := range wireBenchClients {
		for _, pipeline := range []bool{false, true} {
			b.Run(fmt.Sprintf("clients=%d/pipeline=%s", clients, onoff(pipeline)), func(b *testing.B) {
				runWireBench(b, clients, pipeline)
			})
		}
	}
}

// TestEmitWireBenchJSON records the wire-throughput matrix as the
// BenchmarkWireThroughput rows of BENCH.json. Opt-in (REPRO_EMIT_BENCH=1).
// It also enforces the claim the client is built for: at 16 concurrent
// callers, pipelining must deliver at least 2× the unpipelined
// throughput.
func TestEmitWireBenchJSON(t *testing.T) {
	if os.Getenv("REPRO_EMIT_BENCH") == "" {
		t.Skip("set REPRO_EMIT_BENCH=1 to measure the wire layer and write its BENCH.json rows")
	}
	measure := func(clients int, pipeline bool) (float64, float64) {
		res := testing.Benchmark(func(b *testing.B) {
			runWireBench(b, clients, pipeline)
		})
		return float64(res.NsPerOp()), float64(res.AllocsPerOp())
	}
	var rows []benchRow
	unpipelined := map[int]float64{}
	for _, clients := range wireBenchClients {
		for _, pipeline := range []bool{false, true} {
			ns, allocs := measure(clients, pipeline)
			rows = append(rows, benchRow{
				Name:    fmt.Sprintf("clients=%d/pipeline=%s", clients, onoff(pipeline)),
				NsPerOp: ns, AllocsPerOp: allocs,
			})
			if !pipeline {
				unpipelined[clients] = ns
				continue
			}
			speedup := unpipelined[clients] / ns
			t.Logf("clients=%d: pipelined %.0f ns/op, %.2f× the unpipelined throughput", clients, ns, speedup)
			if clients == 16 && speedup < 2 {
				t.Errorf("pipelining at 16 clients is only %.2f× the unpipelined throughput, want >= 2×", speedup)
			}
		}
	}
	recordBenchRows(t, "BenchmarkWireThroughput", rows)
}
