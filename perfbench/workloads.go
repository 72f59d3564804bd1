package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/resd"
	"repro/internal/rng"
	"repro/internal/wal"
)

// logU draws a tick count log-uniformly from [lo, hi].
func logU(r *rng.PCG, lo, hi float64) core.Time {
	return core.Time(r.LogUniform(lo, hi))
}

// zipfWeights split the durable workload's load over its tenants with
// exponent 1.1: tenant t0 issues about a third of the requests.
var zipfWeights = func() []float64 {
	w := make([]float64, nTenants)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), 1.1)
	}
	return w
}()

var (
	// wireChurn: a small steady index (500 preloaded reservations per
	// shard plus the callers' windows, about 1000 per shard), no
	// deadlines; the round trip is wire framing, dispatch and shard
	// handoff.
	wireChurn = &svcSpec{
		shards: 4, m: 256, alpha: 0.5, wire: true, conns: 2, callers: 64, window: 31, preload: 500,
		horizon: 1_000_000,
		draw: func(r *rng.PCG) resd.Request {
			return resd.Request{Ready: core.Time(r.Int63n(1_000_000)), Q: r.IntRange(1, 16),
				Dur: logU(r, 10, 1000), Deadline: resd.NoDeadline}
		},
	}

	// deepDeadline: a large preloaded index (deepPreload reservations
	// per shard, filling about two thirds of the α-prefix), in process.
	// One request in seven is nearly as wide as the prefix; deadlines
	// are tight enough that such requests are mostly rejected after a
	// FindSlot on every shard. The p99 is set by how far such a request
	// scans to its first fit, so it depends on the few longest dense
	// stretches of the preload: at half this index size, the p99 of ten
	// seeds spread by over a quarter of its median; at this size, five
	// seeds agreed within 8 %.
	deepDeadline = &svcSpec{
		shards: 4, m: 256, alpha: 0.25, callers: 2, window: 0, preload: deepPreload,
		horizon: deepHorizon,
		draw: func(r *rng.PCG) resd.Request {
			ready := core.Time(r.Int63n(deepHorizon * 19 / 20))
			if r.Bool(0.15) {
				return resd.Request{Ready: ready, Q: r.IntRange(128, 176), Dur: logU(r, 20, 200),
					Deadline: ready + logU(r, 1000, 50_000)}
			}
			return resd.Request{Ready: ready, Q: int(logU(r, 1, 32)), Dur: logU(r, 50, 2000),
				Deadline: ready + logU(r, 100, 20_000)}
		},
	}

	// durableMixed: the deployed stack; 8 zipf-weighted tenants under
	// soft quotas, 30 % of admissions with a deadline, 20 % of
	// operations are reads. Each group commit is written to the OS but
	// not fsynced, and no snapshot is taken: each log rotation fsyncs
	// the directory on the shard loop and each snapshot fsyncs twice,
	// and fsync latency on a shared virtual disk swung whole runs by a
	// factor of two, more than any bound can absorb. The traced run
	// measures both costs in a phase of its own.
	durableMixed = &svcSpec{
		shards: 4, m: 256, alpha: 0.5, wire: true, conns: 2, callers: 64, window: 16, preload: 1000,
		queryFrac: 0.2, durable: true, sync: wal.SyncNone, horizon: 500_000,
		draw: func(r *rng.PCG) resd.Request {
			ready := core.Time(r.Int63n(500_000))
			req := resd.Request{Tenant: tenantName(r.Pick(zipfWeights)), Ready: ready,
				Q: int(logU(r, 1, 32)), Dur: logU(r, 100, 50_000), Deadline: resd.NoDeadline}
			if r.Bool(0.3) {
				req.Deadline = ready + logU(r, 1, 1000)
			}
			return req
		},
	}
)

const (
	deepPreload = 50_000
	deepHorizon = 5_600_000
)

// preloadDraw makes a set-up reservation: narrow, no deadline.
func preloadDraw(r *rng.PCG, horizon core.Time) resd.Request {
	return resd.Request{Ready: core.Time(r.Int63n(int64(horizon))), Q: int(logU(r, 1, 48)),
		Dur: logU(r, 50, 5000), Deadline: resd.NoDeadline}
}

// trials is how many freshly built stacks a service run's measured time
// is split over; the windows of all of them are pooled, and their builds
// are among the set-ups timed for setup_s. Consecutive 5 s phases on
// fresh stacks in one process differed in throughput by up to a fifth,
// as much as whole runs did, so one stack's pace would set the run.
const trials = 4

// e2eService measures the end-to-end metrics of a service workload.
func e2eService(sp *svcSpec, seed uint64, d time.Duration, dir string) (*report, error) {
	all, opLat := &tally{}, &latencies{}
	var ops, p50, p99 []float64
	var wi resd.WALInfo
	setup, err := repeatSetup(trials, func(i int) (*stack, error) {
		return sp.build(seed, false, fmt.Sprintf("%s/wal-%d", dir, i))
	}, func(i int, st *stack) error {
		t, w, err := trial(st, seed, d/trials)
		if err != nil {
			return err
		}
		o, a, b, err := t.lat.windowed()
		if err != nil {
			return err
		}
		fmt.Printf("trial %d: %d admission decisions in %d windows of %v; per window:\n", i, t.decisions(), len(o), t.lat.win)
		for w := range o {
			fmt.Printf("  %.0f/s p50 %.1f us p99 %.1f us (%d samples)\n", o[w], a[w], b[w], t.lat.admit[w].count())
		}
		ops, p50, p99 = append(ops, o...), append(p50, a...), append(p99, b...)
		for k := range opLat.ops {
			opLat.ops[k].add(&t.lat.ops[k])
		}
		all.merge(t)
		wi = w
		return nil
	}, (*stack).close)
	if err != nil {
		return nil, err
	}
	all.lat = opLat
	printNamed(wi, all, median(ops), median(p50), median(p99), setup)
	return &report{attempted: all.attempted(), failed: all.failed, metrics: map[string]metric{
		"ops_s":       {median(ops), "1/s"},
		"p50_us":      {median(p50), "us"},
		"p99_us":      {median(p99), "us"},
		"quality":     {attainment(all), "frac"},
		"setup_s":     {setup, "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}}, nil
}

// trial drives a built stack for d after a warm-up, runs the end-of-run
// checks and closes the stack. It returns the measured phase's tally and
// the WAL info of the service the checks left (for a durable stack, the
// one reopened from its WAL).
func trial(st *stack, seed uint64, d time.Duration) (*tally, resd.WALInfo, error) {
	defer st.close()
	l := newLoad(st, seed)
	l.run(warmup)
	t, _ := l.run(d)
	if _, err := finalChecks(st, l, t); err != nil {
		return nil, resd.WALInfo{}, err
	}
	return t, st.svc.WALInfo(), nil
}

// printNamed prints the service figures under the names the metric
// table of README.md gives them, with the ones the JSON line does not
// carry.
func printNamed(wi resd.WALInfo, t *tally, ops, p50, p99, setup float64) {
	line := func(name string, v float64, unit, note string) {
		fmt.Printf("  %-20s %14.4f %-5s %s\n", name, v, unit, note)
	}
	fmt.Println("named figures (medians over windows where noted):")
	line("admit_ops_s", ops, "1/s", "")
	line("admit_p50_us", p50, "us", fmt.Sprintf("%d samples", t.decisions()))
	line("admit_p99_us", p99, "us", fmt.Sprintf("%d samples", t.decisions()))
	if n := t.n[opCancel]; n > 0 {
		line("cancel_p50_us", t.lat.ops[opCancel].quantile(50)/1e3, "us", fmt.Sprintf("%d samples", n))
	}
	if n := t.n[opQuery]; n > 0 {
		line("query_p50_us", t.lat.ops[opQuery].quantile(50)/1e3, "us", fmt.Sprintf("%d samples", n))
	}
	line("deadline_attainment", attainment(t), "frac", fmt.Sprintf("%d admitted, %d deadline-rejected", t.admitted, t.rejDeadline))
	line("error_frac", ratio(float64(t.failed), float64(t.attempted())), "frac", fmt.Sprintf("%d of %d", t.failed, t.attempted()))
	line("setup_s", setup, "s", "")
	if wi.Enabled {
		line("recover_s", wi.Replay.Seconds(), "s", fmt.Sprintf("%d records replayed, last trial", wi.Records))
	}
	line("peak_rss_mb", peakRSSMB(), "MB", "")
}

// attainment is admitted / (admitted + deadline-rejected).
func attainment(t *tally) float64 {
	return ratio(float64(t.admitted), float64(t.admitted+t.rejDeadline))
}

// finalChecks runs the end-of-run correctness checks on a quiescent
// stack: start times, hard failures, capacity conservation, the quota
// books and, for a durable stack, recovery from its WAL. It returns the
// mean index segments per shard.
func finalChecks(st *stack, l *load, t *tally) (float64, error) {
	if t.badStart > 0 {
		return 0, fmt.Errorf("%d admissions started before ready or after deadline", t.badStart)
	}
	segs, err := checkShards(st.svc)
	if err != nil {
		return 0, err
	}
	want := append(append([]resd.Reservation(nil), st.preload...), l.live()...)
	if err := checkHolds(st.svc, want); err != nil {
		return 0, err
	}
	if err := quotaUsedMatches(st.svc); err != nil {
		return 0, err
	}
	if st.spec.durable {
		if err := reopen(st, want); err != nil {
			return 0, err
		}
	}
	return segs, nil
}

// workDir makes the run's scratch directory (WAL logs) inside the
// checkout's build directory.
func workDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}
