package main

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/resd"
	"repro/internal/tenant"
)

// statTotals sums the service's per-shard counters.
type statTotals struct {
	admitted, rejected, rejDeadline, rejQuota, cancelled, batches, ops uint64
}

// tries counts shard attempts: each attempt ends in exactly one of the
// per-shard outcomes.
func (d statTotals) tries() uint64 { return d.admitted + d.rejected + d.rejDeadline + d.rejQuota }

func totals(ss []resd.ShardStats) statTotals {
	var t statTotals
	for _, s := range ss {
		t.admitted += s.Admitted
		t.rejected += s.Rejected
		t.rejDeadline += s.RejectedDeadline
		t.rejQuota += s.RejectedQuota
		t.cancelled += s.Cancelled
		t.batches += s.Batches
		t.ops += s.Ops
	}
	return t
}

// statsDelta is the change of the summed Stats() counters between two
// reads of the same service.
func statsDelta(before, after []resd.ShardStats) statTotals {
	b, a := totals(before), totals(after)
	return statTotals{
		admitted: a.admitted - b.admitted, rejected: a.rejected - b.rejected,
		rejDeadline: a.rejDeadline - b.rejDeadline, rejQuota: a.rejQuota - b.rejQuota,
		cancelled: a.cancelled - b.cancelled, batches: a.batches - b.batches, ops: a.ops - b.ops,
	}
}

func toCore(rs []resd.Reservation) []core.Reservation {
	out := make([]core.Reservation, len(rs))
	for i, r := range rs {
		out[i] = core.Reservation{ID: i, Procs: r.Procs, Start: r.Start, Len: r.Dur}
	}
	return out
}

// sameIndex reports whether two capacity indexes hold the same step
// function.
func sameIndex(a, b profile.CapacityIndex) bool {
	bp := a.Breakpoints()
	if !slices.Equal(bp, b.Breakpoints()) {
		return false
	}
	for _, t := range append(bp, 0) {
		if a.AvailableAt(t) != b.AvailableAt(t) {
			return false
		}
	}
	return true
}

// checkShards verifies capacity conservation on a quiescent service:
// every shard's live reservations, rebuilt into a fresh index, give
// exactly the shard's own index, which never drops below the α floor.
// It returns the mean segment count per shard.
func checkShards(svc *resd.Service) (float64, error) {
	var segs int
	for s := range svc.Shards() {
		dump, err := svc.Dump(s)
		if err != nil {
			return 0, err
		}
		snap, err := svc.Snapshot(s)
		if err != nil {
			return 0, err
		}
		rebuilt, err := profile.IndexFromReservations(backend, svc.M(), toCore(dump))
		if err != nil {
			return 0, fmt.Errorf("shard %d: live reservations oversubscribe: %w", s, err)
		}
		if !sameIndex(rebuilt, snap) {
			return 0, fmt.Errorf("shard %d: index differs from its %d live reservations", s, len(dump))
		}
		if lo := snap.MinAvailable(0, core.Infinity); lo < svc.Floor() {
			return 0, fmt.Errorf("shard %d: capacity %d below the α floor %d", s, lo, svc.Floor())
		}
		segs += snap.NumSegments()
	}
	return float64(segs) / float64(svc.Shards()), nil
}

// dumpAll returns every live reservation of the service by ID.
func dumpAll(svc *resd.Service) (map[resd.ID]resd.Reservation, error) {
	out := map[resd.ID]resd.Reservation{}
	for s := range svc.Shards() {
		d, err := svc.Dump(s)
		if err != nil {
			return nil, err
		}
		for _, r := range d {
			out[r.ID] = r
		}
	}
	return out, nil
}

// checkHolds verifies that the service holds exactly want.
func checkHolds(svc *resd.Service, want []resd.Reservation) error {
	got, err := dumpAll(svc)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("service holds %d reservations, callers hold %d", len(got), len(want))
	}
	for _, w := range want {
		if g, ok := got[w.ID]; !ok || g != w {
			return fmt.Errorf("reservation %d: service holds %+v, caller was acknowledged %+v", w.ID, g, w)
		}
	}
	return nil
}

// reopen closes a durable stack's service, builds a new one over the
// same WAL directory, and checks that it holds exactly want; the
// reopened service's WALInfo reports the replay.
func reopen(st *stack, want []resd.Reservation) error {
	st.closeFront()
	st.svc.Close()
	st.svc = nil
	cfg := st.cfg
	cfg.Obs = nil
	cfg.Backend = backend
	q, err := st.spec.quotaRegistry()
	if err != nil {
		return err
	}
	cfg.Quotas = q
	svc, err := resd.New(cfg)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	st.svc = svc
	if err := checkHolds(svc, want); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	if _, err := checkShards(svc); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	return nil
}

// quotaUsedMatches verifies the registry charges exactly the held area
// per tenant: soft quotas never reject, but the books must balance.
func quotaUsedMatches(svc *resd.Service) error {
	q := svc.Quotas()
	if q == nil {
		return nil
	}
	tot, err := svc.TenantTotals()
	if err != nil {
		return err
	}
	for _, name := range slices.Sorted(maps.Keys(tot)) {
		if name == resd.OverflowTenant || name == tenant.DefaultTenant {
			continue
		}
		if u := q.Usage(name); u.Used != tot[name].CommittedArea {
			return fmt.Errorf("tenant %s: registry charges %d, shards hold %d", name, u.Used, tot[name].CommittedArea)
		}
	}
	return nil
}
