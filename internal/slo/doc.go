// Package slo turns the service's cumulative observability counters
// into windowed service-level objectives with error-budget burn-rate
// alerting — the measurement layer that answers "what fraction of
// tenant X's admissions met their deadline over the last 5 minutes,
// and are we burning budget fast enough to page?"
//
// # Windowed aggregation without touching the hot path
//
// Everything resd publishes is cumulative: lock-free counters and
// exponential-histogram buckets bumped by the shard loops and read by
// scrapes. The engine never asks for more. Every Period it snapshots
// each bound source into a stats.SnapRing; the difference between two
// retained snapshots is the exact event count for the span between
// them, so "the last 5 minutes" is pure arithmetic over copies — the
// same no-event-loop contract as a /metrics scrape, at a few kilobytes
// of ring per objective. The same ring, at histogram-bucket width,
// fixes the process-lifetime-only caveat on the slack and loop-turn
// summaries: TrackHistogram exposes restart-free windowed percentiles
// as the <name>_window summary family.
//
// # Objectives
//
// Every objective reduces to a (good, total) event pair per window,
// with Target the promised good fraction and 1−Target the error
// budget:
//
//   - deadline_attainment — good = deadline-carrying admissions,
//     total = those plus deadline rejections. Admission is the decision
//     being judged: the service promises a start time at Admit, so a
//     deadline rejection is the broken promise, counted the moment it
//     happens. Scopable per tenant.
//   - slack — good = admissions whose start-time slack stayed at or
//     under Bound (evaluated on the exponential bucket geometry, so the
//     effective bound rounds down to 2^k−1); Target is the percentile
//     the bound must hold at. Service-wide only.
//   - error_rate — good = admissions, total = admissions plus every
//     rejection. The coarse "is admission working at all" objective.
//
// # Multi-window multi-burn-rate rules
//
// Burn rate is the error fraction over a window divided by the error
// budget: burning at 1× spends exactly the budget over the budget
// window; at 14.4× a 30-day budget is gone in two days. A rule
//
//	{"severity": "page", "burn": 14.4, "short": "5m", "long": "1h"}
//
// fires only when the burn rate is at or above the threshold over BOTH
// windows — the long window proves the burn is sustained (no paging on
// a blip), the short window proves it is still happening (the alert
// clears quickly once the bleeding stops, instead of paging for the
// rest of the long window). An objective's alert state is the highest
// severity among its firing rules: ok → warn → page, exported as
// resd_slo_alert_state (0/1/2). Objectives that declare no rules get
// DefaultRules, the Google SRE workbook pair (14.4× over 5m∧1h pages,
// 3× over 30m∧6h warns).
//
// A window with no traffic has burned nothing: its error fraction is
// defined as 0, so an idle service never divides by zero and never
// pages — and an alert whose traffic stops clears as its windows
// drain.
//
// Every state transition is journaled into the flight recorder
// (subsys "slo", severity mapped warn→Warn, page→Error, clear→Info),
// raised as a /healthz warning while any objective is non-OK
// (Engine.Warning), and handed to Config.OnAlert — which resdsrv wires
// to a rate-limited flight-recorder bundle capture, so a page leaves a
// diagnostic snapshot behind even when nobody is watching. The new state
// is published only after both: any surface that shows a page (States,
// Warning, resd_slo_alert_state, a Watch frame) has its journal entry
// and bundle behind it, and OnAlert itself still sees the old state.
//
// # Exposition
//
// With a registry, the engine exports (labels objective, plus tenant
// when scoped):
//
//	resd_slo_attainment                     gauge    good fraction over the budget window
//	resd_slo_error_budget_remaining         gauge    unburned budget fraction (negative = overspent)
//	resd_slo_burn_rate{window}              gauge    burn per distinct rule window
//	resd_slo_alert_state                    gauge    0 ok / 1 warn / 2 page
//	resd_slo_alert_transitions_total        counter  state changes since start
//	<hist>_window{quantile}                 summary  windowed percentiles per tracked histogram
//
// The same evaluated states stream over the wire as the
// WatchSLO telemetry family (see internal/reswire), and obscheck -slo
// asserts the families and the alert state from the outside.
package slo
