package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/flight"
	"repro/internal/resd"
	"repro/internal/reswire"
	"repro/internal/wal"
)

// layerNames lists every per-layer metric with its unit, in report
// order. Figures a workload has no layer for are reported as 0.
var layerNames = []struct{ name, unit string }{
	{"trace.untraced_ops_s", "1/s"}, {"trace.traced_ops_s", "1/s"}, {"trace.overhead_frac", "frac"},
	{"trace.joined", "count"}, {"trace.contained_frac", "frac"}, {"trace.summed_frac", "frac"},
	{"trace.unattributed_us", "us"},
	{"reswire.send_us", "us"}, {"reswire.reply_us", "us"}, {"reswire.codec_ns", "ns"}, {"reswire.bytes_per_op", "B"},
	{"resd.route_us_p50", "us"}, {"resd.route_us_p99", "us"}, {"resd.dispatch_us_p50", "us"},
	{"resd.queue_wait_us_p50", "us"}, {"resd.queue_wait_us_p99", "us"},
	{"resd.turn_us_p50", "us"}, {"resd.turn_us_p99", "us"},
	{"resd.shards_tried_per_admit", "count"}, {"resd.ops_per_batch", "count"}, {"resd.queue_depth_p99", "count"},
	{"resd.cancel_p50_us", "us"}, {"resd.query_p50_us", "us"},
	{"index.findslot_calls_per_admit", "count"}, {"index.findslot_ns_p50", "ns"}, {"index.findslot_ns_p99", "ns"},
	{"index.commit_ns", "ns"}, {"index.release_ns", "ns"}, {"index.segments", "count"}, {"index.busy_frac", "frac"}, {"index.util_frac", "frac"},
	{"index.canplace_calls_per_job", "count"}, {"index.canplace_ns", "ns"},
	{"index.minavail_calls_per_job", "count"}, {"index.minavail_ns", "ns"},
	{"wal.fsyncs_per_admit", "count"}, {"wal.fsync_p99_us", "us"}, {"wal.sync_batch_ops_s", "1/s"}, {"wal.bytes_per_op", "B"},
	{"wal.replay_records_s", "1/s"}, {"wal.recover_s", "s"},
	{"tenant.rejected_quota", "count"}, {"obs.scrape_ms", "ms"}, {"obs.watch_dropped", "count"}, {"flight.events", "count"},
	{"sim.fcfs_array_s", "s"}, {"sim.fcfs_tree_s", "s"}, {"sim.easy-bf_array_s", "s"}, {"sim.easy-bf_tree_s", "s"},
	{"sim.greedy-lsrc_array_s", "s"}, {"sim.greedy-lsrc_tree_s", "s"}, {"sim.queue_scanned_per_dispatch", "count"},
	{"runtime.allocs_per_op", "count"}, {"runtime.gc_cycles_per_kop", "count"},
	{"runtime.gc_pause_p99_us", "us"}, {"runtime.goroutines_peak", "count"},
}

// layerReport fills every per-layer name from vals, defaulting to 0.
func layerReport(attempted, failed uint64, vals map[string]float64) (*report, error) {
	out := map[string]metric{}
	for _, l := range layerNames {
		out[l.name] = metric{vals[l.name], l.unit}
		delete(vals, l.name)
	}
	for k := range vals {
		return nil, fmt.Errorf("per-layer figure %q has no declared name", k)
	}
	return &report{attempted: attempted, failed: failed, metrics: out}, nil
}

// runtimeFigures fills the runtime.* figures of a phase of ops
// operations.
func runtimeFigures(v map[string]float64, mw *memWindow, ops uint64, goroutines []int64) {
	v["runtime.allocs_per_op"] = ratio(mw.allocs(), float64(ops))
	v["runtime.gc_cycles_per_kop"] = ratio(mw.gcs()*1000, float64(ops))
	v["runtime.gc_pause_p99_us"] = float64(mw.pauseP99()) / 1e3
	if n := len(goroutines); n > 0 {
		v["runtime.goroutines_peak"] = float64(goroutines[n-1])
	}
}

// layersService is the traced run of a service workload. Its first half
// runs untraced and gives the layer counters that need no tracing
// (Stats deltas, WAL counters, runtime); its second half rebuilds the
// stack on the counting index, samples admissions into the trace ring
// and joins each sample to its call.
func layersService(sp *svcSpec, seed uint64, d time.Duration, dir string) (*report, error) {
	v := map[string]float64{}
	half := d / 2

	// Untraced half.
	st, err := sp.build(seed, false, dir+"/wal-plain")
	if err != nil {
		return nil, err
	}
	l := newLoad(st, seed)
	l.run(warmup)
	stats0, wal0 := st.svc.Stats(), st.svc.WALStats()
	depth := startSampler(5*time.Millisecond, func() int64 {
		var n int64
		for _, q := range st.svc.QueueDepths() {
			n += int64(q)
		}
		return n
	})
	gor := startSampler(5*time.Millisecond, func() int64 { return int64(runtime.NumGoroutine()) })
	mw := startMem()
	t, el := l.run(half)
	mw.stop()
	goroutines, depths := gor.stop(), depth.stop()
	delta := statsDelta(stats0, st.svc.Stats())
	ops := t.answered()
	untraced := float64(t.decisions()) / el.Seconds()
	v["trace.untraced_ops_s"] = untraced
	v["resd.shards_tried_per_admit"] = ratio(float64(delta.tries()), float64(t.decisions()))
	v["resd.ops_per_batch"] = ratio(float64(delta.ops), float64(delta.batches))
	v["resd.queue_depth_p99"] = float64(pctl(depths, 99))
	v["resd.cancel_p50_us"] = t.lat.ops[opCancel].quantile(50) / 1e3
	v["resd.query_p50_us"] = t.lat.ops[opQuery].quantile(50) / 1e3
	v["tenant.rejected_quota"] = float64(delta.rejQuota)
	runtimeFigures(v, mw, ops, goroutines)
	if w1 := st.svc.WALStats(); len(w1) > 0 {
		v["wal.bytes_per_op"] = ratio(float64(walDelta(wal0, w1).Bytes), float64(ops))
	}
	if sp.durable {
		st.mu.Lock()
		v["obs.scrape_ms"] = float64(pctl(sorted(st.scrapes), 50)) / 1e6
		v["obs.watch_dropped"] = float64(st.watch.dropped)
		st.mu.Unlock()
		j := st.rec.Journal()
		v["flight.events"] = float64(j.Count(flight.Warn) + j.Count(flight.Error))
	}
	attempted, failed := t.attempted(), t.failed
	if _, err := finalChecks(st, l, t); err != nil {
		st.close()
		return nil, err
	}
	if sp.durable {
		wi := st.svc.WALInfo()
		v["wal.recover_s"] = wi.Replay.Seconds()
		v["wal.replay_records_s"] = ratio(float64(wi.Records), wi.Replay.Seconds())
	}
	st.close()
	if sp.durable {
		if err := fsyncPhase(sp, seed, d/4, dir, v); err != nil {
			return nil, err
		}
	}

	// Traced half.
	st, err = sp.build(seed, true, dir+"/wal-traced")
	if err != nil {
		return nil, err
	}
	defer st.close()
	l = newLoad(st, seed)
	l.traced = true
	l.run(warmup / 2)
	idx.reset()
	turn0 := turnNs(st)
	t, el = l.run(half)
	turnSum := turnNs(st) - turn0
	traced := float64(t.decisions()) / el.Seconds()
	v["trace.traced_ops_s"] = traced
	v["trace.overhead_frac"] = 1 - ratio(traced, untraced)
	v["index.findslot_calls_per_admit"] = ratio(float64(idx.findSlot.Load()), float64(t.decisions()))
	v["index.findslot_ns_p50"] = idx.findSlotHist.quantile(50)
	v["index.findslot_ns_p99"] = idx.findSlotHist.quantile(99)
	v["index.commit_ns"] = idx.commitHist.quantile(50)
	v["index.release_ns"] = idx.releaseHist.quantile(50)
	v["index.busy_frac"] = ratio(float64(idx.busyNs()), turnSum)
	v["index.util_frac"] = ratio(float64(idx.busyNs()), float64(sp.shards)*float64(el.Nanoseconds()))
	ss := joinTraces(st.svc.Traces(0), t.calls, sp.wire)
	if ss.joined == 0 {
		return nil, fmt.Errorf("traced phase: no sampled admission joined to its call")
	}
	v["trace.joined"] = float64(ss.joined)
	v["trace.contained_frac"] = ratio(float64(ss.contained), float64(ss.joined))
	v["trace.summed_frac"] = ratio(float64(ss.summed), float64(ss.joined))
	v["trace.unattributed_us"] = ss.pctl("admit", 50, true)
	if sp.wire {
		v["reswire.send_us"] = ss.pctl("reswire.send", 50, false)
		v["reswire.reply_us"] = ss.pctl("reswire.reply", 50, false)
		ns, bytes, err := codecReplay(l)
		if err != nil {
			return nil, err
		}
		v["reswire.codec_ns"], v["reswire.bytes_per_op"] = ns, bytes
	}
	v["resd.route_us_p50"] = ss.pctl("resd.route", 50, false)
	v["resd.route_us_p99"] = ss.pctl("resd.route", 99, false)
	v["resd.dispatch_us_p50"] = ss.pctl("resd.dispatch", 50, false)
	v["resd.queue_wait_us_p50"] = ss.pctl("resd.queue_wait", 50, false)
	v["resd.queue_wait_us_p99"] = ss.pctl("resd.queue_wait", 99, false)
	v["resd.turn_us_p50"] = ss.pctl("resd.turn", 50, false)
	v["resd.turn_us_p99"] = ss.pctl("resd.turn", 99, false)
	segs, err := finalChecks(st, l, t)
	if err != nil {
		return nil, err
	}
	v["index.segments"] = segs
	if ss.summed*100 < ss.joined*99 {
		return nil, fmt.Errorf("stage spans match the measured latency on %d of %d joined admissions, want 99%%", ss.summed, ss.joined)
	}
	fmt.Printf("traced: %d admissions joined to their calls, %d contained, %d summed within tolerance\n",
		ss.joined, ss.contained, ss.summed)
	return layerReport(attempted+t.attempted(), failed+t.failed, v)
}

// fsyncPhase runs a durable workload once more with one fsync per group
// commit and a snapshot every 8192 records per shard, as resdsrv takes
// them, and fills the fsync figures. Its figures depend on the disk;
// they are per-layer only.
func fsyncPhase(sp *svcSpec, seed uint64, d time.Duration, dir string, v map[string]float64) error {
	synced := *sp
	synced.sync, synced.snapEvery = wal.SyncBatch, 8192
	st, err := synced.build(seed, false, dir+"/wal-fsync")
	if err != nil {
		return err
	}
	defer st.close()
	l := newLoad(st, seed)
	l.run(warmup / 2)
	wal0 := st.svc.WALStats()
	t, el := l.run(d)
	w := walDelta(wal0, st.svc.WALStats())
	v["wal.fsyncs_per_admit"] = ratio(float64(w.Fsyncs), float64(t.decisions()))
	v["wal.fsync_p99_us"] = float64(w.FsyncP99) / 1e3
	v["wal.sync_batch_ops_s"] = float64(t.decisions()) / el.Seconds()
	_, err = finalChecks(st, l, t)
	return err
}

// walDelta sums the change of the shards' WAL counters; FsyncP99 is
// the worst shard's.
func walDelta(before, after []resd.WALShardStats) resd.WALShardStats {
	var d resd.WALShardStats
	for i := range after {
		d.Bytes += after[i].Bytes - before[i].Bytes
		d.Fsyncs += after[i].Fsyncs - before[i].Fsyncs
		d.FsyncP99 = max(d.FsyncP99, after[i].FsyncP99)
	}
	return d
}

// turnNs is the shards' summed event-loop turn time so far, from the
// service's resd_loop_turn_ns summaries.
func turnNs(st *stack) float64 {
	var sum float64
	for _, s := range st.reg.Gather() {
		if s.Name == "resd_loop_turn_ns_sum" {
			sum += s.Value
		}
	}
	return sum
}

// joinTraces joins each sampled trace to the call that carried its send
// stamp and folds the span trees.
func joinTraces(trs []resd.TraceRecord, calls []callRecord, wire bool) *spanStats {
	byStamp := make(map[int64]callRecord, len(calls))
	for _, c := range calls {
		byStamp[c.Stamp] = c
	}
	ss := newSpanStats()
	for _, tr := range trs {
		if tr.Outcome == resd.TraceError || tr.ClientSend == 0 {
			continue
		}
		if c, ok := byStamp[traceKey(tr)]; ok {
			ss.add(admitSpans(c, tr, wire), c.Latency)
		}
	}
	return ss
}

// codecReplay times the wire codec on the run's own Admit frames:
// encode and decode of each request and its response. It returns ns and
// wire bytes per request/response pair.
func codecReplay(l *load) (nsPerPair, bytesPerPair float64, err error) {
	var reqs []reswire.Request
	var resps []reswire.Response
	for _, cs := range l.callers {
		reqs = append(reqs, cs.frames...)
		resps = append(resps, cs.resps...)
	}
	if len(reqs) == 0 {
		return 0, 0, fmt.Errorf("codec replay: the traced phase kept no frames")
	}
	var buf []byte
	var bytes int
	for i := range reqs {
		if buf, err = reswire.AppendRequest(buf[:0], reqs[i]); err == nil {
			bytes += len(buf)
			_, err = reswire.DecodeRequest(buf[4:])
		}
		if err == nil {
			buf, err = reswire.AppendResponse(buf[:0], resps[i])
		}
		if err == nil {
			bytes += len(buf)
			_, err = reswire.DecodeResponse(buf[4:])
		}
		if err != nil {
			return 0, 0, fmt.Errorf("codec replay: %w", err)
		}
	}
	// The frames round-tripped above, so the timed passes cannot fail.
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		for i := range reqs {
			buf, _ = reswire.AppendRequest(buf[:0], reqs[i])
			_, _ = reswire.DecodeRequest(buf[4:])
			buf, _ = reswire.AppendResponse(buf[:0], resps[i])
			_, _ = reswire.DecodeResponse(buf[4:])
		}
		n += len(reqs)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), float64(bytes) / float64(len(reqs)), nil
}
