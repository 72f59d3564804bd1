package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/verify"
	"repro/internal/workload"
)

// The paper-sim input: simInstances synthetic job streams at m
// processors, each with an α-restricted reservation stream beside it.
// Several instances per seed keep one seed's draw from setting the
// run's figures.
const (
	simInstances = 3
	simM         = 256
	simAlpha     = 0.5
	simJobs      = 3000
	simRes       = 1500
	simIAT       = 60 // mean inter-arrival, ticks: queues of several hundred jobs
)

var (
	simPolicies = []sim.Policy{sim.FCFSPolicy{}, sim.EASYPolicy{}, sim.GreedyPolicy{}}
	simBackends = []string{"array", "tree"}
)

type simInput struct {
	res      []core.Reservation
	arrivals []workload.Arrival
}

// simInputs draws the instances of a seed.
func simInputs(seed uint64) ([]*simInput, error) {
	var out []*simInput
	for k := range uint64(simInstances) {
		in, err := simInstance(rng.NewStream(seed, 2*k+1), rng.NewStream(seed, 2*k+2))
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// simInstance draws the job stream, then reservations until simRes are
// placed: each is kept only if the reservations under it still leave
// ⌊α·m⌋ processors free, the paper's α restriction.
func simInstance(jobs, resv *rng.PCG) (*simInput, error) {
	arr, err := workload.Synthetic(jobs, workload.SynthConfig{M: simM, N: simJobs, MaxWidthFrac: simAlpha, MeanInterArrival: simIAT})
	if err != nil {
		return nil, err
	}
	var horizon core.Time = 1
	for _, a := range arr {
		horizon = max(horizon, a.At+a.Job.Len)
	}
	floor := int(simAlpha * simM)
	tl := profile.New(simM)
	var res []core.Reservation
	for try := 0; len(res) < simRes && try < 50*simRes; try++ {
		q := int(logU(resv, 1, float64(simM-floor)))
		start := core.Time(resv.Int63n(int64(horizon)))
		l := logU(resv, 10, float64(horizon)/100)
		if tl.MinAvailable(start, start+l)-q < floor {
			continue
		}
		if err := tl.Commit(start, l, q); err != nil {
			return nil, err
		}
		res = append(res, core.Reservation{ID: len(res), Procs: q, Start: start, Len: l})
	}
	if len(res) < simRes {
		return nil, fmt.Errorf("paper-sim: placed %d of %d reservations", len(res), simRes)
	}
	return &simInput{res: res, arrivals: arr}, nil
}

// simRun is one run type: an instance under one policy on one backend.
type simRun struct {
	inst    int
	policy  sim.Policy
	backend string
}

func simRuns() []simRun {
	var out []simRun
	for i := range simInstances {
		for _, p := range simPolicies {
			for _, b := range simBackends {
				out = append(out, simRun{i, p, b})
			}
		}
	}
	return out
}

// simPhase is what one phase of repeated simulator runs measured.
type simPhase struct {
	runs     []simRun
	jobs     []int       // per run type
	times    [][]float64 // per run type, seconds
	util     []float64   // per run type, effective utilisation
	busy     time.Duration
	dispatch hist  // Dispatch latencies, ns
	scanned  int64 // queue entries handed to Dispatch
}

// jobsPerSec is the jobs of one pass over every run type divided by the
// median times of the run types.
func (ph *simPhase) jobsPerSec() float64 {
	var jobs, secs float64
	for i := range ph.runs {
		jobs += float64(ph.jobs[i])
		secs += median(ph.times[i])
	}
	return ratio(jobs, secs)
}

// jobsDone counts the jobs scheduled over every run.
func (ph *simPhase) jobsDone() uint64 {
	var n uint64
	for i, t := range ph.times {
		n += uint64(ph.jobs[i] * len(t))
	}
	return n
}

func (ph *simPhase) runCount() int {
	n := 0
	for _, t := range ph.times {
		n += len(t)
	}
	return n
}

// runTime is the summed median time of one policy on one backend over
// the instances.
func (ph *simPhase) runTime(policy, backend string) float64 {
	var s float64
	for i, r := range ph.runs {
		if r.policy.Name() == policy && r.backend == backend {
			s += median(ph.times[i])
		}
	}
	return s
}

// runSim cycles through every run type (backend names mapped through
// backendName) until d has passed, at least once over all of them. The
// first run of an instance and policy fixes its reference schedule:
// it is verified, and every later run, on either backend, must
// reproduce it.
func runSim(ins []*simInput, d time.Duration, backendName func(string) string, ref map[[2]int][]core.Time) (*simPhase, error) {
	runs := simRuns()
	ph := &simPhase{runs: runs, jobs: make([]int, len(runs)), times: make([][]float64, len(runs)), util: make([]float64, len(runs))}
	t0 := time.Now()
	for n := 0; n < len(runs) || time.Since(t0) < d; n++ {
		i := n % len(runs)
		r := runs[i]
		in := ins[r.inst]
		pol := timedPolicy{Policy: r.policy, lat: &ph.dispatch, scanned: &ph.scanned}
		start := time.Now()
		res, err := sim.RunOn(backendName(r.backend), simM, in.res, in.arrivals, pol)
		took := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", r.policy.Name(), r.backend, err)
		}
		ph.busy += took
		ph.jobs[i] = res.Metrics.Jobs
		ph.times[i] = append(ph.times[i], took.Seconds())
		ph.util[i] = res.Metrics.EffectiveUtilization
		if err := checkSchedule(in, r, res, ref); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// checkSchedule verifies one run against the paper's feasibility rules
// and against the reference schedule of its instance and policy.
func checkSchedule(in *simInput, r simRun, res *sim.Result, ref map[[2]int][]core.Time) error {
	key := [2]int{r.inst, slices.Index(simPolicies, r.policy)}
	want, seen := ref[key]
	if !seen {
		if err := verify.Verify(res.AsSchedule()); err != nil {
			return fmt.Errorf("%s on %s: %w", r.policy.Name(), r.backend, err)
		}
		for i, a := range in.arrivals {
			if res.Starts[i] < a.At {
				return fmt.Errorf("%s on %s: job %d starts at %d before its arrival %d", r.policy.Name(), r.backend, i, res.Starts[i], a.At)
			}
		}
		ref[key] = slices.Clone(res.Starts)
		return nil
	}
	if !slices.Equal(res.Starts, want) {
		return fmt.Errorf("instance %d, %s on %s: schedule differs from the first run's", r.inst, r.policy.Name(), r.backend)
	}
	return nil
}

func plainBackend(b string) string { return b }

// e2eSim measures the paper-sim end-to-end metrics: jobs scheduled per
// second over all policy × backend runs, the scheduler's per-event
// decision latency, and the schedules' effective utilisation.
func e2eSim(seed uint64, d time.Duration) (*report, error) {
	var ph *simPhase
	setup, err := repeatSetup(1, func(int) ([]*simInput, error) { return simInputs(seed) }, func(_ int, in []*simInput) (err error) {
		ph, err = runSim(in, d, plainBackend, map[[2]int][]core.Time{})
		return err
	}, func([]*simInput) {})
	if err != nil {
		return nil, err
	}
	n := ph.dispatch.count()
	if p := tailPct(int(n)); p < 99 {
		return nil, fmt.Errorf("%d Dispatch calls: too few for a p99 with %d beyond it (p%g)", n, minBeyond, p)
	}
	p50, p99 := ph.dispatch.quantile(50)/1e3, ph.dispatch.quantile(99)/1e3
	fmt.Printf("%d Dispatch calls: p50 %.1f us, p99 %.1f us\n", n, p50, p99)
	fmt.Printf("  %-20s %14.4f 1/s   %d jobs over %d runs\n", "sim_jobs_s", ph.jobsPerSec(), ph.jobsDone(), ph.runCount())
	return &report{attempted: ph.jobsDone(), metrics: map[string]metric{
		"ops_s":       {ph.jobsPerSec(), "1/s"},
		"p50_us":      {p50, "us"},
		"p99_us":      {p99, "us"},
		"quality":     {mean(ph.util), "frac"},
		"setup_s":     {setup, "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}}, nil
}

// layersSim is the traced paper-sim run: an untraced half for run times
// and runtime figures, then a half on the counting index backends.
func layersSim(seed uint64, d time.Duration) (*report, error) {
	in, err := simInputs(seed)
	if err != nil {
		return nil, err
	}
	v := map[string]float64{}
	ref := map[[2]int][]core.Time{}
	gor := startSampler(5*time.Millisecond, func() int64 { return int64(runtime.NumGoroutine()) })
	mw := startMem()
	ph, err := runSim(in, d/2, plainBackend, ref)
	mw.stop()
	goroutines := gor.stop()
	if err != nil {
		return nil, err
	}
	untraced := ph.jobsPerSec()
	v["trace.untraced_ops_s"] = untraced
	for _, p := range simPolicies {
		for _, b := range simBackends {
			v["sim."+p.Name()+"_"+b+"_s"] = ph.runTime(p.Name(), b)
		}
	}
	v["sim.queue_scanned_per_dispatch"] = ratio(float64(ph.scanned), float64(ph.dispatch.count()))
	runtimeFigures(v, mw, ph.jobsDone(), goroutines)

	registerCounting()
	idx.reset()
	tr, err := runSim(in, d/2, countedBackend, ref)
	if err != nil {
		return nil, err
	}
	jobs := float64(tr.jobsDone())
	traced := tr.jobsPerSec()
	v["trace.traced_ops_s"] = traced
	v["trace.overhead_frac"] = 1 - ratio(traced, untraced)
	v["index.canplace_calls_per_job"] = ratio(float64(idx.canPlace.Load()), jobs)
	v["index.canplace_ns"] = ratio(float64(idx.canPlaceNs.Load()), float64(idx.canPlace.Load()))
	v["index.minavail_calls_per_job"] = ratio(float64(idx.minAvail.Load()), jobs)
	v["index.minavail_ns"] = ratio(float64(idx.mn.Load()), float64(idx.minAvail.Load()))
	v["index.findslot_ns_p50"] = idx.findSlotHist.quantile(50)
	v["index.findslot_ns_p99"] = idx.findSlotHist.quantile(99)
	v["index.commit_ns"] = idx.commitHist.quantile(50)
	v["index.release_ns"] = idx.releaseHist.quantile(50)
	// The simulator is one goroutine: its index time over its run time
	// is both the busy and the utilisation share.
	v["index.busy_frac"] = ratio(float64(idx.busyNs()), float64(tr.busy.Nanoseconds()))
	v["index.util_frac"] = v["index.busy_frac"]
	return layerReport(ph.jobsDone()+tr.jobsDone(), 0, v)
}
