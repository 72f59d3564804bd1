// Package restree implements the "tree" capacity-index backend: a balanced
// (AVL) augmented interval tree over the segments of the available-capacity
// step function, after the enhanced-balanced-tree reservation data
// structures of de Assunção et al.
//
// Each node owns one maximal constant segment [start, end) of the step
// function, keyed by start, and carries subtree aggregates — minimum and
// maximum available capacity plus the contiguous time span the subtree
// covers. The aggregates buy the two operations that dominate scheduling
// with reservations:
//
//   - admission checks (MinAvailable over a window) descend past whole
//     subtrees that lie outside the window, O(log n);
//   - earliest-fit queries (FindSlot / EarliestFit) are one in-order walk
//     that never restarts from the root. A subtree whose min capacity is
//     >= q fits throughout and is passed in O(1). A subtree whose max
//     capacity is < q blocks throughout, and the candidate start jumps
//     past it in O(1). Only subtrees that mix the two are descended, so a
//     query costs O((k+1)·log n) for k alternations between fitting and
//     blocked stretches, where the array Timeline scans every segment.
//
// Mutations (Commit/Release) split at most two segments, update the covered
// range, and re-coalesce at the two window boundaries, so the tree
// maintains exactly the same canonical form as profile.Timeline: strictly
// increasing breakpoints and no equal-valued neighbours. Every observable
// — capacities, slots, breakpoints, segment counts, free areas and error
// conditions — therefore agrees bit-for-bit with the array backend, which
// the differential fuzz harness in this package enforces.
//
// The package registers itself with the profile backend registry under the
// name "tree"; select it with -backend=tree on the CLIs or via
// profile.NewIndex("tree", m).
package restree

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/profile"
)

func init() {
	profile.RegisterBackend("tree", func(m int) profile.CapacityIndex { return New(m) })
}

// node is one segment [start, end) of the step function plus AVL and
// aggregate bookkeeping. In-order traversal yields the segments in time
// order, and they tile [0, +inf) without gaps.
type node struct {
	start, end core.Time // end == core.Infinity on the final segment
	avail      int       // capacity available on [start, end)

	left, right *node
	height      int

	// Subtree aggregates, maintained by update():
	mn, mx         int       // min/max avail over the subtree
	spanLo, spanHi core.Time // contiguous window the subtree tiles
}

func height(n *node) int {
	if n == nil {
		return 0
	}
	return n.height
}

// update recomputes n's height and aggregates from its children.
func (n *node) update() {
	n.height = 1 + max(height(n.left), height(n.right))
	n.mn, n.mx = n.avail, n.avail
	n.spanLo, n.spanHi = n.start, n.end
	if l := n.left; l != nil {
		n.mn = min(n.mn, l.mn)
		n.mx = max(n.mx, l.mx)
		n.spanLo = l.spanLo
	}
	if r := n.right; r != nil {
		n.mn = min(n.mn, r.mn)
		n.mx = max(n.mx, r.mx)
		n.spanHi = r.spanHi
	}
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	n.update()
	r.update()
	return r
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	n.update()
	l.update()
	return l
}

// rebalance restores the AVL invariant at n after a child mutation.
func rebalance(n *node) *node {
	n.update()
	switch bf := height(n.left) - height(n.right); {
	case bf > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

func insert(n, nn *node) *node {
	if n == nil {
		nn.update()
		return nn
	}
	if nn.start < n.start {
		n.left = insert(n.left, nn)
	} else {
		n.right = insert(n.right, nn)
	}
	return rebalance(n)
}

// remove deletes the node keyed by start; the key must be present.
func remove(n *node, start core.Time) *node {
	if n == nil {
		panic("restree: removing missing segment")
	}
	switch {
	case start < n.start:
		n.left = remove(n.left, start)
	case start > n.start:
		n.right = remove(n.right, start)
	default:
		if n.left == nil {
			return n.right
		}
		if n.right == nil {
			return n.left
		}
		s := n.right
		for s.left != nil {
			s = s.left
		}
		n.start, n.end, n.avail = s.start, s.end, s.avail
		n.right = remove(n.right, s.start)
	}
	return rebalance(n)
}

// setEnd rewrites the end of the segment keyed by start and refreshes the
// span aggregates along the search path.
func setEnd(n *node, start, end core.Time) {
	if n == nil {
		panic("restree: setEnd on missing segment")
	}
	switch {
	case start < n.start:
		setEnd(n.left, start, end)
	case start > n.start:
		setEnd(n.right, start, end)
	default:
		n.end = end
	}
	n.update()
}

// Tree is the balanced capacity index. The zero value is not usable;
// construct with New or FromReservations.
type Tree struct {
	m    int
	root *node
	size int
}

// Tree implements the backend seam.
var _ profile.CapacityIndex = (*Tree)(nil)

// New returns a tree with constant capacity m on [0, +inf).
func New(m int) *Tree {
	if m < 0 {
		panic("restree: negative capacity")
	}
	t := &Tree{m: m, size: 1}
	t.root = insert(nil, &node{start: 0, end: core.Infinity, avail: m})
	return t
}

// FromReservations returns the availability left by the reservations on an
// m-processor machine, or a wrapped profile.ErrInsufficient if they
// oversubscribe it.
func FromReservations(m int, res []core.Reservation) (*Tree, error) {
	t := New(m)
	for _, r := range res {
		if err := t.Commit(r.Start, r.Len, r.Procs); err != nil {
			return nil, fmt.Errorf("restree: reservation %d: %w", r.ID, err)
		}
	}
	return t, nil
}

// M returns the machine size the tree was created with.
func (t *Tree) M() int { return t.m }

// NumSegments returns the number of constant segments.
func (t *Tree) NumSegments() int { return t.size }

func cloneNode(n *node) *node {
	if n == nil {
		return nil
	}
	c := *n
	c.left = cloneNode(n.left)
	c.right = cloneNode(n.right)
	return &c
}

// Clone returns an independent deep copy.
func (t *Tree) Clone() *Tree {
	return &Tree{m: t.m, root: cloneNode(t.root), size: t.size}
}

// CloneIndex implements profile.CapacityIndex.
func (t *Tree) CloneIndex() profile.CapacityIndex { return t.Clone() }

// seg returns the segment containing time t (t >= 0): the node with the
// greatest start <= t.
func (t *Tree) seg(at core.Time) *node {
	var best *node
	for n := t.root; n != nil; {
		if n.start <= at {
			best = n
			n = n.right
		} else {
			n = n.left
		}
	}
	return best
}

// CapacityAt returns the capacity available at time t (the paper-facing
// name for AvailableAt).
func (t *Tree) CapacityAt(at core.Time) int { return t.AvailableAt(at) }

// AvailableAt implements profile.CapacityIndex.
func (t *Tree) AvailableAt(at core.Time) int {
	if at < 0 {
		at = 0
	}
	return t.seg(at).avail
}

// windowEnd computes start+dur treating dur == Infinity as unbounded.
func windowEnd(start, dur core.Time) core.Time {
	if dur == core.Infinity {
		return core.Infinity
	}
	return start + dur
}

// minIn returns the minimum avail over segments intersecting [a, b),
// pruning subtrees wholly outside the window and reading the aggregate on
// subtrees wholly inside it.
func minIn(n *node, a, b core.Time) int {
	if n == nil || n.spanHi <= a || n.spanLo >= b {
		return math.MaxInt
	}
	if n.spanLo >= a && n.spanHi <= b {
		return n.mn
	}
	v := minIn(n.left, a, b)
	if n.end > a && n.start < b {
		v = min(v, n.avail)
	}
	return min(v, minIn(n.right, a, b))
}

// maxIn is minIn's dual, used to validate releases.
func maxIn(n *node, a, b core.Time) int {
	if n == nil || n.spanHi <= a || n.spanLo >= b {
		return math.MinInt
	}
	if n.spanLo >= a && n.spanHi <= b {
		return n.mx
	}
	v := maxIn(n.left, a, b)
	if n.end > a && n.start < b {
		v = max(v, n.avail)
	}
	return max(v, maxIn(n.right, a, b))
}

// MinIn returns the minimum capacity over [a, b) — the paper-facing name
// for MinAvailable.
func (t *Tree) MinIn(a, b core.Time) int { return t.MinAvailable(a, b) }

// MinAvailable implements profile.CapacityIndex. It panics if t0 >= t1 or
// t0 < 0, mirroring profile.Timeline.
func (t *Tree) MinAvailable(t0, t1 core.Time) int {
	if t0 < 0 || t0 >= t1 {
		panic(profile.ErrBadWindow)
	}
	return minIn(t.root, t0, t1)
}

// CanPlace reports whether q processors are available during the entire
// window [start, start+dur).
func (t *Tree) CanPlace(start, dur core.Time, q int) bool {
	if dur <= 0 {
		panic(profile.ErrBadWindow)
	}
	return t.MinAvailable(start, windowEnd(start, dur)) >= q
}

// EarliestFit returns the earliest time s >= notBefore such that q
// processors are available during all of [s, s+dur): the de Assunção-style
// alternative-offer query. The boolean is false only when the final
// (unbounded) capacity is below q and no finite window fits.
//
// The search is one in-order walk over the tree that carries a candidate
// start s (see fitWalk). It skips subtrees that end at or before s, and
// accepts s as soon as s+dur is at or before the start of the next
// subtree. A subtree whose min capacity is >= q fits throughout, so the
// walk passes it without descending. A subtree whose max capacity is
// < q blocks throughout, so s jumps straight to the end of its span in
// O(1), and the query fails if that end is unbounded. Only subtrees
// that mix fitting and blocked segments are descended. A query thus
// costs O((k+1)·log n), where k is the number of alternations between
// fitting and blocked stretches it passes, however many segments those
// stretches hold; no blocked segment costs a fresh descent from the
// root.
func (t *Tree) EarliestFit(q int, dur, notBefore core.Time) (core.Time, bool) {
	if dur <= 0 {
		panic(profile.ErrBadWindow)
	}
	f := fitWalk{q: q, dur: dur, s: max(notBefore, 0), last: core.Infinity}
	if dur != core.Infinity {
		f.last = core.Infinity - dur
	}
	f.visit(t.root)
	if f.failed {
		return 0, false
	}
	return f.s, true
}

// fitWalk is the state of one EarliestFit walk. Its invariant is that
// every segment between the candidate start s and the walk's current
// position has capacity >= q, so [s, s+dur) fits as soon as the walk
// reaches s+dur.
type fitWalk struct {
	q      int
	dur, s core.Time
	// last is the latest start whose window end does not wrap past
	// Infinity. Past it, s+dur wraps negative and both backends accept
	// the candidate start they hold, so a blocked subtree may be jumped
	// in one step only if no segment end inside it lies past last.
	last   core.Time
	failed bool // the unbounded final segment is below q
}

// visit walks n's subtree in time order and reports whether the search
// is decided: either s fits, or failed is set. Subtrees wholly before s
// are skipped.
func (f *fitWalk) visit(n *node) bool {
	if n == nil || n.spanHi <= f.s {
		return false
	}
	end := windowEnd(f.s, f.dur)
	switch {
	case end <= n.spanLo:
		return true
	case n.mn >= f.q:
		return end <= n.spanHi
	case n.mx < f.q && n.spanHi-1 <= f.last:
		return f.block(n.spanHi)
	}
	if f.visit(n.left) {
		return true
	}
	if n.end > f.s {
		end := windowEnd(f.s, f.dur)
		switch {
		case end <= n.start: // only when s+dur wrapped: else the left subtree decided
			return true
		case n.avail >= f.q:
			if end <= n.end {
				return true
			}
		case f.block(n.end):
			return true
		}
	}
	return f.visit(n.right)
}

// block moves s past a blocked stretch ending at end. It reports true,
// with failed set, when the stretch is unbounded.
func (f *fitWalk) block(end core.Time) bool {
	if end == core.Infinity {
		f.failed = true
		return true
	}
	f.s = end
	return false
}

// FindSlot implements profile.CapacityIndex in terms of EarliestFit.
func (t *Tree) FindSlot(ready core.Time, q int, dur core.Time) (core.Time, bool) {
	return t.EarliestFit(q, dur, ready)
}

// ensureBreak splits the segment containing t so that a segment starts
// exactly at t. No-op if one already does. t must be finite and >= 0.
func (t *Tree) ensureBreak(at core.Time) {
	s := t.seg(at)
	if s.start == at {
		return
	}
	end, avail := s.end, s.avail
	setEnd(t.root, s.start, at)
	t.root = insert(t.root, &node{start: at, end: end, avail: avail})
	t.size++
}

// addRange adds delta to every segment contained in [lo, hi). Callers must
// have ensured breaks at lo and (when finite) hi, so containment and
// overlap coincide and span pruning is exact.
func addRange(n *node, lo, hi core.Time, delta int) {
	if n == nil || n.spanHi <= lo || n.spanLo >= hi {
		return
	}
	addRange(n.left, lo, hi, delta)
	addRange(n.right, lo, hi, delta)
	if n.start >= lo && n.start < hi {
		n.avail += delta
	}
	n.update()
}

// mergeAt re-coalesces the boundary at t: if the segment starting at t has
// the same capacity as its predecessor, the predecessor absorbs it. After
// a uniform delta over [lo, hi) only the two window boundaries can merge —
// interior neighbours differed before the delta and still do.
func (t *Tree) mergeAt(at core.Time) {
	if at <= 0 || at == core.Infinity {
		return
	}
	s := t.seg(at)
	if s == nil || s.start != at {
		return
	}
	p := t.seg(at - 1)
	if p == nil || p.avail != s.avail {
		return
	}
	pStart, sEnd := p.start, s.end
	t.root = remove(t.root, at)
	t.size--
	setEnd(t.root, pStart, sEnd)
}

// apply adds deltaQ to the capacity over [start, start+dur), validating
// against the same bounds (and with the same error identities) as the
// array Timeline.
func (t *Tree) apply(start, dur core.Time, deltaQ int) error {
	if dur <= 0 || start < 0 {
		return profile.ErrBadWindow
	}
	end := windowEnd(start, dur)
	if end != core.Infinity && end <= start {
		// start+dur overflowed past the Infinity sentinel; reject before
		// any mutation rather than split on an inverted window.
		return profile.ErrBadWindow
	}
	if deltaQ < 0 {
		if m := minIn(t.root, start, end); m < -deltaQ {
			return fmt.Errorf("%w: need %d on [%v,%v), min available %d",
				profile.ErrInsufficient, -deltaQ, start, end, m)
		}
	} else {
		if m := maxIn(t.root, start, end); m+deltaQ > t.m {
			return fmt.Errorf("%w: releasing %d would exceed m=%d",
				profile.ErrOverRelease, deltaQ, t.m)
		}
	}
	t.ensureBreak(start)
	if end != core.Infinity {
		t.ensureBreak(end)
	}
	addRange(t.root, start, end, deltaQ)
	t.mergeAt(start)
	if end != core.Infinity {
		t.mergeAt(end)
	}
	return nil
}

// Commit consumes q processors over [start, start+dur). It returns a
// wrapped profile.ErrInsufficient (leaving the tree unchanged) if the
// window does not have q processors available throughout.
func (t *Tree) Commit(start, dur core.Time, q int) error {
	if q < 0 {
		return fmt.Errorf("restree: negative commit %d", q)
	}
	if q == 0 {
		return nil
	}
	return t.apply(start, dur, -q)
}

// Release restores q processors over [start, start+dur), undoing a Commit.
// It returns a wrapped profile.ErrOverRelease if this would lift capacity
// above m anywhere in the window.
func (t *Tree) Release(start, dur core.Time, q int) error {
	if q < 0 {
		return fmt.Errorf("restree: negative release %d", q)
	}
	if q == 0 {
		return nil
	}
	return t.apply(start, dur, q)
}

// NextBreakpoint returns the smallest breakpoint strictly greater than at,
// or (0, false) if none exists.
func (t *Tree) NextBreakpoint(at core.Time) (core.Time, bool) {
	var best core.Time
	found := false
	for n := t.root; n != nil; {
		if n.start > at {
			best, found = n.start, true
			n = n.left
		} else {
			n = n.right
		}
	}
	return best, found
}

// walk visits the segments in time order until the callback returns false.
func walk(n *node, visit func(*node) bool) bool {
	if n == nil {
		return true
	}
	return walk(n.left, visit) && visit(n) && walk(n.right, visit)
}

// Breakpoints returns a copy of all breakpoint times.
func (t *Tree) Breakpoints() []core.Time {
	out := make([]core.Time, 0, t.size)
	walk(t.root, func(n *node) bool {
		out = append(out, n.start)
		return true
	})
	return out
}

// FreeArea returns the integral of available capacity over [t0, t1).
// t1 must be finite.
func (t *Tree) FreeArea(t0, t1 core.Time) int64 {
	if t0 < 0 || t1 == core.Infinity || t0 > t1 {
		panic(profile.ErrBadWindow)
	}
	return freeArea(t.root, t0, t1)
}

func freeArea(n *node, a, b core.Time) int64 {
	if n == nil || n.spanHi <= a || n.spanLo >= b {
		return 0
	}
	area := freeArea(n.left, a, b) + freeArea(n.right, a, b)
	lo, hi := core.MaxTime(n.start, a), core.MinTime(n.end, b)
	if hi > lo {
		area += int64(hi-lo) * int64(n.avail)
	}
	return area
}

// FirstTimeWithFreeArea returns the smallest t such that FreeArea(0, t) >=
// w. The boolean is false if the total area never reaches w, which can
// only happen when the final capacity is 0.
func (t *Tree) FirstTimeWithFreeArea(w int64) (core.Time, bool) {
	if w <= 0 {
		return 0, true
	}
	var acc int64
	var at core.Time
	found := false
	walk(t.root, func(n *node) bool {
		if n.end == core.Infinity {
			if n.avail == 0 {
				return false
			}
			steps := (w - acc + int64(n.avail) - 1) / int64(n.avail)
			at, found = n.start+core.Time(steps), true
			return false
		}
		segArea := int64(n.end-n.start) * int64(n.avail)
		if acc+segArea >= w {
			steps := (w - acc + int64(n.avail) - 1) / int64(n.avail)
			at, found = n.start+core.Time(steps), true
			return false
		}
		acc += segArea
		return true
	})
	return at, found
}

// String renders the tree's segments in the same format as
// profile.Timeline, for debugging and differential assertions.
func (t *Tree) String() string {
	var b strings.Builder
	first := true
	walk(t.root, func(n *node) bool {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "[%v,%v)=%d", n.start, n.end, n.avail)
		return true
	})
	return b.String()
}
