package resd

import (
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// loadedShards builds n bare shards whose published committed area and
// tenant "t" area are drawn from a few values only, so ties are common.
func loadedShards(r *rng.PCG, n int) []*shard {
	shards := make([]*shard, n)
	for i := range shards {
		sh := &shard{}
		sh.committedArea.Store(int64(r.Intn(4)))
		mine := new(atomic.Int64)
		mine.Store(int64(r.Intn(3)))
		sh.tenAreas.Store("t", mine)
		shards[i] = sh
	}
	return shards
}

// TestPlacementOrderMatchesStableSort pins the insertion-sort orders of
// the sorting policies to sort.SliceStable over the shard indices, ties
// included, across shard counts on both sides of stackShards.
func TestPlacementOrderMatchesStableSort(t *testing.T) {
	r := rng.New(5)
	for _, name := range []string{"least-loaded", "pressure"} {
		p, err := placementByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 500; trial++ {
			shards := loadedShards(r, 1+r.Intn(2*stackShards))
			want := make([]int, len(shards))
			for i := range want {
				want[i] = i
			}
			load := func(i int) int64 { return shards[i].committedArea.Load() }
			mine := func(i int) int64 { return shards[i].tenantArea("t") }
			sort.SliceStable(want, func(a, b int) bool {
				if name == "pressure" && mine(want[a]) != mine(want[b]) {
					return mine(want[a]) < mine(want[b])
				}
				return load(want[a]) < load(want[b])
			})
			var buf [stackShards]int
			if got := p.order(buf[:0], shards, "t"); !slices.Equal(got, want) {
				t.Fatalf("%s over %d shards: order %v, stable sort %v", name, len(shards), got, want)
			}
		}
	}
}

// TestPlacementOrderAllocFree: with the destination on the caller's
// stack, no policy allocates for up to stackShards shards.
func TestPlacementOrderAllocFree(t *testing.T) {
	shards := loadedShards(rng.New(6), stackShards)
	for _, name := range Placements() {
		p, err := placementByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			var buf [stackShards]int
			if n := len(p.order(buf[:0], shards, "t")); n != len(shards) {
				t.Fatalf("%s: order of %d shards", name, n)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per order, want 0", name, allocs)
		}
	}
}
