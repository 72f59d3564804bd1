package resd

import (
	"fmt"
	"sync/atomic"
)

// placement orders the shards a Reserve request should try. The order
// is a preference list: the service walks it until a shard admits.
// Policies read only the shards' atomic load summaries, never the
// event-loop state, so routing is lock-free and may be (harmlessly)
// stale: the routed shard re-validates inside its loop.
//
// placement is a concrete type dispatching on the policy name rather
// than an interface, so order's destination buffer can live on the
// caller's stack: an argument passed through an interface method always
// escapes to the heap.
type placement struct {
	policy string
	p2c    uint64 // p2c's splitmix64 state, advanced atomically per request
}

// Placements lists the routing policies PlacementByName accepts.
func Placements() []string { return []string{"first-fit", "least-loaded", "p2c", "pressure"} }

// placementByName builds the named policy. seed feeds p2c's sampling.
func placementByName(name string, seed uint64) (*placement, error) {
	for _, p := range Placements() {
		if p == name {
			return &placement{policy: name, p2c: seed}, nil
		}
	}
	return nil, fmt.Errorf("resd: unknown placement %q (available: %v)", name, Placements())
}

func (p *placement) name() string { return p.policy }

// stackShards is the shard count up to which order's callers and the
// sorting policies' key arrays need no heap allocation.
const stackShards = 16

// order writes the preference list into dst[:0] and returns it. ten is
// the requesting tenant (already normalised, never empty); tenant-blind
// policies ignore it.
func (p *placement) order(dst []int, shards []*shard, ten string) []int {
	dst = dst[:0]
	switch p.policy {
	case "least-loaded":
		return leastLoaded(dst, shards)
	case "p2c":
		return p.powerOfTwo(dst, shards)
	case "pressure":
		return pressure(dst, shards, ten)
	}
	return firstFit(dst, shards)
}

// firstFit scans shards in index order: deterministic and deliberately
// naive — all load lands on the lowest-index shard that admits, which for
// earliest-fit admission is almost always shard 0. It is the baseline the
// balancing policies are measured against.
func firstFit(dst []int, shards []*shard) []int {
	for i := range shards {
		dst = append(dst, i)
	}
	return dst
}

// leastLoaded routes to the shard with the smallest committed area,
// breaking ties by index; the rest follow in load order as fallbacks.
func leastLoaded(dst []int, shards []*shard) []int {
	var buf [stackShards]int64
	load := buf[:0]
	for i, sh := range shards {
		load = append(load, sh.committedArea.Load())
		dst = insertStable(dst, i, func(j int) bool { return load[j] > load[i] })
	}
	return dst
}

// insertStable appends shard i to the sorted list dst and moves it left
// past every entry j with after(j): an insertion sort step. Entries that
// tie with i stay ahead of it, so the order is stable and ties are
// broken by index, as sort.SliceStable over the identity would.
func insertStable(dst []int, i int, after func(j int) bool) []int {
	dst = append(dst, i)
	k := len(dst) - 1
	for ; k > 0 && after(dst[k-1]); k-- {
		dst[k] = dst[k-1]
	}
	dst[k] = i
	return dst
}

// powerOfTwo is power-of-two-choices on free area: sample two distinct
// shards, prefer the one with the smaller committed area (= larger free
// area over any common horizon). O(1) loads read per request, and by the
// classic balls-into-bins result the max load stays within
// O(log log S) of the mean — almost all the benefit of least-loaded
// without scanning every shard. The remaining shards follow in index
// order.
func (p *placement) powerOfTwo(dst []int, shards []*shard) []int {
	n := len(shards)
	if n == 1 {
		return append(dst, 0)
	}
	r := p.next()
	a := int(r % uint64(n))
	b := int((r >> 32) % uint64(n-1))
	if b >= a {
		b++
	}
	if shards[b].committedArea.Load() < shards[a].committedArea.Load() {
		a, b = b, a
	}
	dst = append(dst, a, b)
	for i := 0; i < n; i++ {
		if i != a && i != b {
			dst = append(dst, i)
		}
	}
	return dst
}

// next advances p2c's shared state and returns a splitmix64 output.
// Atomic add keeps the sampler lock-free under concurrent Reserves; the
// exact sequence interleaving is irrelevant, only uniformity matters.
func (p *placement) next() uint64 {
	z := atomic.AddUint64(&p.p2c, 0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// pressure routes by per-tenant shard pressure: the requesting tenant's
// committed area on each shard (read from the shards' lock-free
// per-tenant mirrors), lowest first, with total committed area and then
// index breaking ties. With per-shard budget shares equal — which is how
// the quota registry resolves budgets, globally, with no per-shard skew —
// ordering by the tenant's usage-to-budget ratio on a shard and ordering
// by its raw usage there coincide, so the policy needs no registry
// handle and works with quotas disabled too. The effect is quota-aware
// placement: each tenant's own footprint is spread across partitions, so
// a zipf-heavy tenant saturates no single shard while small tenants are
// routed around the hot spots the heavy hitters made.
func pressure(dst []int, shards []*shard, ten string) []int {
	var mineBuf, loadBuf [stackShards]int64
	mine, load := mineBuf[:0], loadBuf[:0]
	for i, sh := range shards {
		mine = append(mine, sh.tenantArea(ten))
		load = append(load, sh.committedArea.Load())
		dst = insertStable(dst, i, func(j int) bool {
			return mine[j] > mine[i] || (mine[j] == mine[i] && load[j] > load[i])
		})
	}
	return dst
}
