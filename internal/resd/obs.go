package resd

import (
	"math"
	"strconv"
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/wal"
)

// ObsConfig attaches a Service to the observability layer. Registry
// receives the service's metric families at New; TraceSample enables
// admission tracing. The full exposition-name table is in this package's
// doc.go.
type ObsConfig struct {
	// Registry is the metrics sink. Nil disables metrics (instrumented
	// code still runs against no-op instruments).
	Registry *obs.Registry
	// TraceSample records one in N Admit calls into the trace ring
	// (1 = every request, 0 = tracing disabled).
	TraceSample int
	// TraceBuf is the trace ring capacity (0 = DefaultTraceBuf).
	TraceBuf int
	// SlowThreshold marks a sampled request slow when its arrival-to-
	// decision latency reaches the threshold (0 = no slow accounting).
	SlowThreshold time.Duration
	// SlowLog, when set, receives each slow sampled request — the
	// slow-request log hook.
	//
	// Contract: the callback is invoked asynchronously, on a single
	// dispatcher goroutine, through a bounded non-blocking queue — it
	// may therefore be arbitrarily slow (write to a socket, take a
	// lock) without ever stalling an admission. The cost of that
	// safety is loss under burst: when slow requests arrive faster
	// than the callback drains them, excess records are dropped and
	// counted (resd_slow_log_dropped_total). Callbacks still in the
	// queue when the service closes may run after Close returns, or
	// not at all.
	SlowLog func(TraceRecord)
	// Flight attaches the node's flight recorder: the service journals
	// operational events (replay verdicts, WAL damage, migrations,
	// quota overflow, slow batch turns) through it, every shard loop
	// publishes heartbeats from its batch turn, and New arms the
	// recorder's watchdog with the service's probes (Close disarms
	// it). Nil disables flight recording; see internal/flight.
	Flight *flight.Recorder
	// SLO, when non-nil, arms the error-budget engine against the
	// service: New binds a CounterSource to every objective the spec
	// declares (deadline_attainment service-wide and per named tenant,
	// error_rate, slack under its bound), routes the slack and
	// loop-turn histograms through the engine's snapshot ring for
	// windowed percentiles, and starts the tick loop; Close stops it.
	// The engine should be built over the same Registry and the flight
	// recorder's journal so its families and transition events land
	// beside the service's own. See internal/slo.
	SLO *slo.Engine
}

// registerObs wires every layer's metrics into the registry. Called once
// from New, after the shards exist; every closure reads either published
// atomics or channel lengths, so scrapes never touch an event loop.
func (s *Service) registerObs() {
	reg := s.cfg.Obs.Registry
	if reg == nil {
		return
	}
	for i := range s.shards {
		sh := s.shards[i]
		lbl := obs.L("shard", strconv.Itoa(i))
		reg.GaugeFunc("resd_shard_queue_depth",
			"Requests waiting in the shard event loop's queue.",
			func() float64 { return float64(len(sh.reqs)) }, lbl)
		reg.GaugeFunc("resd_shard_active",
			"Currently admitted reservations on the shard.",
			func() float64 { return float64(sh.activeCount.Load()) }, lbl)
		reg.GaugeFunc("resd_shard_committed_area",
			"Processor-tick area held by the shard's active reservations.",
			func() float64 { return float64(sh.committedArea.Load()) }, lbl)
		reg.CounterFunc("resd_shard_batches_total",
			"Event-loop turns (group commits) served.", sh.batches.Load, lbl)
		reg.CounterFunc("resd_shard_ops_total",
			"Requests served across all batches.", sh.ops.Load, lbl)
		reg.GaugeFunc("resd_shard_ops_per_batch",
			"Realised group-commit factor: ops / batches.",
			func() float64 {
				b := sh.batches.Load()
				if b == 0 {
					return 0
				}
				return float64(sh.ops.Load()) / float64(b)
			}, lbl)
		reg.CounterFunc("resd_admitted_total",
			"Admitted reservations.", sh.admitted.Load, lbl)
		reg.CounterFunc("resd_cancelled_total",
			"Cancelled reservations.", sh.cancelled.Load, lbl)
		reg.CounterFunc("resd_rejected_total",
			"Rejected admission attempts by reason.",
			sh.rejected.Load, lbl, obs.L("reason", "capacity"))
		reg.CounterFunc("resd_rejected_total",
			"Rejected admission attempts by reason.",
			sh.rejectedDL.Load, lbl, obs.L("reason", "deadline"))
		reg.CounterFunc("resd_rejected_total",
			"Rejected admission attempts by reason.",
			sh.rejectedQuota.Load, lbl, obs.L("reason", "quota"))
		reg.CounterFunc("resd_migrated_total",
			"Reservations the rebalancer moved, by direction.",
			sh.migratedIn.Load, lbl, obs.L("dir", "in"))
		reg.CounterFunc("resd_migrated_total",
			"Reservations the rebalancer moved, by direction.",
			sh.migratedOut.Load, lbl, obs.L("dir", "out"))
		if wl := sh.wlog; wl != nil {
			reg.CounterFunc("resd_wal_bytes_total",
				"Bytes appended to the shard's write-ahead log.",
				func() uint64 { return wl.Stats().Bytes }, lbl)
			reg.CounterFunc("resd_wal_records_total",
				"Records appended to the shard's write-ahead log.",
				func() uint64 { return wl.Stats().Records }, lbl)
			reg.CounterFunc("resd_wal_fsyncs_total",
				"Group-commit fsyncs on the shard's log.",
				func() uint64 { return wl.Stats().Fsyncs }, lbl)
			reg.CounterFunc("resd_wal_snapshots_total",
				"Completed snapshot writes (log truncations).",
				func() uint64 { return wl.Stats().Snapshots }, lbl)
			reg.CounterFunc("resd_wal_failures_total",
				"WAL write failures (a failed log degrades the shard to non-durable).",
				sh.walFailed.Load, lbl)
			reg.GaugeFunc("resd_wal_generation",
				"Log generation currently being appended to.",
				func() float64 { return float64(wl.Stats().Gen) }, lbl)
			reg.GaugeFunc("resd_wal_snapshot_age_seconds",
				"Seconds since the shard's newest durable snapshot (since Open when none).",
				func() float64 {
					return time.Since(time.Unix(0, wl.Stats().LastSnapshot)).Seconds()
				}, lbl)
		}
	}
	if s.walInfo.Enabled {
		// Handles captured here: the loop nils sh.wlog if the log fails,
		// and scrapes must not race that write (the frozen telemetry of a
		// degraded shard is still worth exposing).
		wls := make([]*wal.Log, len(s.shards))
		for i := range s.shards {
			wls[i] = s.shards[i].wlog
		}
		reg.Collect(obs.KindSummary, "resd_wal_fsync_ns",
			"Group-commit fsync latency on each shard's log, nanoseconds.",
			func(e obs.Emitter) {
				for i, wl := range wls {
					if wl == nil {
						continue
					}
					lbl := obs.L("shard", strconv.Itoa(i))
					e.Emit(float64(wl.FsyncQuantile(0.5)), lbl, obs.L("quantile", "0.5"))
					e.Emit(float64(wl.FsyncQuantile(0.9)), lbl, obs.L("quantile", "0.9"))
					e.Emit(float64(wl.FsyncQuantile(0.99)), lbl, obs.L("quantile", "0.99"))
					e.EmitSuffix("_count", float64(wl.FsyncCount()), lbl)
				}
			})
		reg.GaugeFunc("resd_wal_replay_seconds",
			"How long WAL recovery took when the service was built.",
			s.walInfo.Replay.Seconds)
		reg.GaugeFunc("resd_wal_replayed_records",
			"Log records replay applied when the service was built.",
			func() float64 { return float64(s.walInfo.Records) })
		// Recovery damage report: what replay found wrong with the logs
		// when the service was built. All constants after New, but exposed
		// as families so a scrape (or an alert) sees a restart that lost
		// data without anyone reading the startup banner.
		reg.GaugeFunc("resd_wal_replayed_snapshots",
			"Snapshots replay loaded when the service was built.",
			func() float64 { return float64(s.walInfo.Snapshots) })
		reg.GaugeFunc("resd_wal_torn_tails",
			"Torn (mid-write crash) record tails replay discarded across shards.",
			func() float64 { return float64(s.walInfo.Torn) })
		reg.GaugeFunc("resd_wal_corrupt_records",
			"Corrupt (checksum-failed) records replay stopped at across shards.",
			func() float64 { return float64(s.walInfo.Corrupt) })
		reg.GaugeFunc("resd_wal_dropped_bytes",
			"Log bytes replay could not apply (torn tails and corrupt suffixes).",
			func() float64 { return float64(s.walInfo.DroppedBytes) })
		reg.GaugeFunc("resd_wal_replayed_moves",
			"Migration intents replay resolved, by outcome.",
			func() float64 { return float64(s.walInfo.MovesCommitted) },
			obs.L("outcome", "committed"))
		reg.GaugeFunc("resd_wal_replayed_moves",
			"Migration intents replay resolved, by outcome.",
			func() float64 { return float64(s.walInfo.MovesAborted) },
			obs.L("outcome", "aborted"))
	}
	// Slack summaries, read straight from each shard's histogram: the
	// quantiles, _count and _sum describe the same observations. The
	// histogram restarts empty with the process (WAL replay restores the
	// admitted counter, not the samples), so _count is this process's
	// admissions, not resd_admitted_total.
	reg.Collect(obs.KindSummary, "resd_slack_ticks",
		"Start-time slack (admitted start − ready, ticks) of admissions.",
		func(e obs.Emitter) {
			for i, sh := range s.shards {
				e.Summary(sh.slack, obs.L("shard", strconv.Itoa(i)))
			}
		})
	if s.tracer != nil {
		reg.CounterFunc("resd_traces_sampled_total",
			"Admissions sampled into the trace ring.", s.tracer.sampled.Load)
		reg.CounterFunc("resd_slow_requests_total",
			"Sampled admissions at or over the slow threshold.", s.tracer.slowSeen.Load)
		if s.tracer.slowQ != nil {
			reg.CounterFunc("resd_slow_log_dropped_total",
				"Slow-request records dropped because the SlowLog callback queue was full.",
				s.tracer.slowQ.Dropped)
		}
	}
	if s.cfg.RebalanceNow != nil {
		reg.GaugeFunc("resd_logical_clock_ticks",
			"Current value of the service's logical clock (RebalanceNow).",
			func() float64 { return float64(s.cfg.RebalanceNow()) })
	}
	reg.CounterFunc("resd_rebalance_rounds_total",
		"Rebalancing rounds that ran (including no-op rounds).", s.balRounds.Load)
	reg.CounterFunc("resd_rebalance_moves_total",
		"Rebalancer move outcomes.", s.balApplied.Load, obs.L("result", "applied"))
	reg.CounterFunc("resd_rebalance_moves_total",
		"Rebalancer move outcomes.", s.balAborted.Load, obs.L("result", "aborted"))
	reg.CounterFunc("resd_rebalance_moves_total",
		"Rebalancer move outcomes.", s.balSkipped.Load, obs.L("result", "skipped"))
	reg.GaugeFunc("resd_rebalance_imbalance",
		"Imbalance score (1 − min/max committed area) around the last round.",
		func() float64 { return math.Float64frombits(s.balBefore.Load()) },
		obs.L("phase", "before"))
	reg.GaugeFunc("resd_rebalance_imbalance",
		"Imbalance score (1 − min/max committed area) around the last round.",
		func() float64 { return math.Float64frombits(s.balAfter.Load()) },
		obs.L("phase", "after"))
	reg.GaugeFunc("resd_rebalance_backoff_skips",
		"Ticks the background balancer is currently skipping (backoff state).",
		func() float64 { return float64(s.balBackoff.Load()) })
	if q := s.cfg.Quotas; q != nil {
		reg.GaugeFunc("tenant_quota_capacity",
			"Reservable α-prefix area the quota registry budgets against.",
			func() float64 { return float64(q.Capacity()) })
		reg.Collect(obs.KindGauge, "tenant_quota_budget",
			"Per-tenant budgeted share of the reservable prefix.",
			func(e obs.Emitter) {
				for _, u := range q.Tenants() {
					e.Emit(float64(u.Budget), obs.L("tenant", u.Tenant))
				}
			})
		reg.Collect(obs.KindGauge, "tenant_quota_used",
			"Per-tenant committed area currently charged.",
			func(e obs.Emitter) {
				for _, u := range q.Tenants() {
					e.Emit(float64(u.Used), obs.L("tenant", u.Tenant))
				}
			})
		reg.Collect(obs.KindGauge, "tenant_quota_inflight",
			"Per-tenant admissions currently held.",
			func(e obs.Emitter) {
				for _, u := range q.Tenants() {
					e.Emit(float64(u.Inflight), obs.L("tenant", u.Tenant))
				}
			})
		reg.Collect(obs.KindCounter, "tenant_quota_admitted_total",
			"Per-tenant admissions since start.",
			func(e obs.Emitter) {
				for _, u := range q.Tenants() {
					e.Emit(float64(u.Admitted), obs.L("tenant", u.Tenant))
				}
			})
		reg.Collect(obs.KindCounter, "tenant_quota_rejected_total",
			"Per-tenant hard-mode quota rejections since start.",
			func(e obs.Emitter) {
				for _, u := range q.Tenants() {
					e.Emit(float64(u.Rejected), obs.L("tenant", u.Tenant))
				}
			})
	}
}
