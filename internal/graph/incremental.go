package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ErrCycle is returned by Incremental.AddArc when inserting the arc
// would create a directed cycle; the arc is not inserted.
var ErrCycle = errors.New("graph: arc would create a cycle")

// Incremental maintains a topological order of a growing DAG under arc
// insertions (Pearce–Kelly, "A Dynamic Topological Sort Algorithm for
// Directed Acyclic Graphs", 2006). AddArc rejects — rather than
// inserts — arcs that would close a cycle, which is exactly the test an
// online serialization-graph scheduler needs on its hot path.
//
// Vertices are addressed by stable external IDs: AddVertex hands out
// consecutive integers that remain valid for the vertex's whole life,
// across any number of Retire compactions. Internally the order,
// bitset and sparse adjacency are kept dense over the live vertices
// only, so memory tracks live transactions rather than history; the
// external-ID indirection is what keeps scheduler and trace evidence
// links valid across the internal remap.
//
// Two insertion disciplines are offered:
//
//   - AddArc / AddArcBatch check for cycles and maintain the order
//     eagerly (rejecting with ErrCycle);
//   - AppendArcs inserts arcs the caller has already proven acyclic
//     (e.g. via a conservative vector-clock test) without any cycle
//     sweep, deferring order maintenance to the next Settle — the
//     O(1)-amortized fast path.
//
// AddChain adds vertices joined by implicit arcs x -> x+1 (a
// transaction's program order): one flag per vertex instead of an
// adjacency entry at each end, followed by every traversal and
// reported by every query like an explicit arc.
type Incremental struct {
	g     *Sparse
	ord   []int // ord[v] = position of v in the topological order
	pos   []int // pos[i] = vertex at position i (inverse of ord)
	mark  Bitset
	link  []bool // link[v] marks the implicit chain arc v -> v+1
	links int    // set flags in link

	// External-ID indirection. ext[v] is the stable ID of internal
	// vertex v; intIdx[x-base] is the internal vertex of external ID x
	// (-1 once retired). base advances over the retired prefix so
	// intIdx, too, stays proportional to the live set.
	ext     []int
	base    int
	intIdx  []int
	retired int

	// Deferred-settle window: positions [dirtyLb, dirtyUb] may hold
	// order-violating arcs appended by AppendArcs; -1 when settled.
	dirtyLb, dirtyUb int

	// resortRegion's and Retire's scratch, reused across calls.
	indeg, ready, order, remap []int
}

// NewIncremental returns an incremental DAG with n vertices and no
// arcs, topologically ordered by vertex number.
func NewIncremental(n int) *Incremental {
	inc := &Incremental{g: NewSparse(n), dirtyLb: -1, dirtyUb: -1}
	inc.ord = make([]int, n)
	inc.pos = make([]int, n)
	inc.ext = make([]int, n)
	inc.intIdx = make([]int, n)
	inc.link = make([]bool, n)
	for i := 0; i < n; i++ {
		inc.ord[i] = i
		inc.pos[i] = i
		inc.ext[i] = i
		inc.intIdx[i] = i
	}
	inc.mark = NewBitset(n)
	return inc
}

// Len returns the number of live (non-retired) vertices.
func (inc *Incremental) Len() int { return inc.g.Len() }

// RetiredCount returns the number of vertices removed by Retire over
// the structure's lifetime.
func (inc *Incremental) RetiredCount() int { return inc.retired }

// intOf translates an external ID to its internal vertex; the second
// result is false when the vertex has been retired.
func (inc *Incremental) intOf(x int) (int, bool) {
	i := x - inc.base
	if i < 0 {
		if x < 0 {
			panic(fmt.Sprintf("graph: negative vertex ID %d", x))
		}
		return -1, false // below the retired prefix
	}
	if i >= len(inc.intIdx) {
		panic(fmt.Sprintf("graph: unknown vertex ID %d (max %d)", x, inc.base+len(inc.intIdx)-1))
	}
	v := inc.intIdx[i]
	if v < 0 {
		return -1, false
	}
	return v, true
}

// mustInt translates an external ID, panicking on retired IDs: arcs
// may only touch live vertices, so a retired operand is a caller bug.
func (inc *Incremental) mustInt(x int) int {
	v, live := inc.intOf(x)
	if !live {
		panic(fmt.Sprintf("graph: vertex ID %d is retired", x))
	}
	return v
}

// AddVertex appends a fresh vertex (last in the current order) and
// returns its stable external ID. IDs are consecutive: each call returns
// one more than the previous call, retirements notwithstanding.
func (inc *Incremental) AddVertex() int {
	v := inc.g.AddVertex()
	inc.ord = append(inc.ord, v)
	inc.pos = append(inc.pos, v)
	// Grow the mark bitset to the exact required length. A single-word
	// append is not enough here: after a retirement compaction rebuilds
	// mark over the live set, the internal index can sit more than one
	// word beyond the current capacity, and under-allocating makes a
	// later mark.Set index out of range.
	for v >= len(inc.mark)*wordBits {
		inc.mark = append(inc.mark, 0)
	}
	x := inc.base + len(inc.intIdx)
	inc.intIdx = append(inc.intIdx, v)
	inc.ext = append(inc.ext, x)
	inc.link = append(inc.link, false)
	return x
}

// AddChain appends n vertices joined by implicit arcs x -> x+1, last in
// the current order, and returns the first one's external ID (the next
// ID when n is 0). Only IsolateVertex and Retire remove a chain arc, and
// the caller adds no explicit arc parallel to one.
func (inc *Incremental) AddChain(n int) int {
	x := inc.base + len(inc.intIdx)
	for k := 0; k < n; k++ {
		inc.AddVertex()
		inc.link[len(inc.link)-1] = k+1 < n
	}
	inc.links += max(n-1, 0)
	return x
}

// AddArc inserts u -> v, restoring a valid topological order. If the
// arc would create a cycle (including u == v) it returns ErrCycle and
// leaves the structure unchanged. Inserting an arc that is already
// present just bumps its multiplicity.
func (inc *Incremental) AddArc(u, v int) error {
	if u == v {
		return ErrCycle
	}
	iu := inc.mustInt(u)
	iv := inc.mustInt(v)
	// While a dirty window is pending, ord is still the order from
	// before the appended arcs, which is exactly the state the window
	// bounds were computed against: a forward arc can be inserted
	// directly (settling later covers it), anything else settles first.
	if inc.ord[iu] < inc.ord[iv] || inc.g.HasArc(iu, iv) {
		inc.g.AddArc(iu, iv)
		return nil
	}
	inc.mustSettle()
	if inc.ord[iu] < inc.ord[iv] {
		inc.g.AddArc(iu, iv)
		return nil
	}
	// Affected region: positions (ord[v] .. ord[u]).
	lb, ub := inc.ord[iv], inc.ord[iu]
	found, deltaF := inc.forwardSearch(iv, ub, iu)
	if found {
		inc.clearMarks()
		return ErrCycle
	}
	deltaB := inc.backwardSearch(iu, lb)
	inc.reorder(deltaF, deltaB)
	inc.clearMarks()
	inc.g.AddArc(iu, iv)
	return nil
}

// RemoveArc removes one multiplicity of u -> v. The topological order
// remains valid (removal can only relax constraints).
func (inc *Incremental) RemoveArc(u, v int) {
	inc.g.RemoveArc(inc.mustInt(u), inc.mustInt(v))
}

// IsolateVertex removes all arcs incident to v. The vertex keeps its
// position; the order remains valid. Retired vertices are already
// isolated, so the call is a no-op for them.
func (inc *Incremental) IsolateVertex(v int) {
	if iv, ok := inc.intOf(v); ok {
		inc.isolate(iv)
	}
}

// isolate drops every arc of internal vertex v, chain arcs included,
// keeping its rows for the vertices that follow its retirement.
func (inc *Incremental) isolate(v int) {
	inc.g.isolate(v)
	for _, w := range [2]int{v - 1, v} {
		if w >= 0 && inc.link[w] {
			inc.link[w] = false
			inc.links--
		}
	}
}

// Successors returns the successors of u in ascending external-ID
// order; nil for retired vertices.
func (inc *Incremental) Successors(u int) []int { return inc.adjacent(u, true) }

func (inc *Incremental) adjacent(u int, fwd bool) []int {
	iu, ok := inc.intOf(u)
	if !ok {
		return nil
	}
	out := []int{}
	for it := inc.adj(iu, fwd); it.more(); {
		out = append(out, inc.ext[it.next()])
	}
	return out
}

// VisitPredecessors calls fn on each predecessor of the live vertex u
// in ascending external-ID order, reading the adjacency in place.
func (inc *Incremental) VisitPredecessors(u int, fn func(v int)) {
	for it := inc.adj(inc.mustInt(u), false); it.more(); {
		fn(inc.ext[it.next()])
	}
}

// adjIter walks the successors or the predecessors of an internal
// vertex in ascending order, the chain neighbour merged in at its
// place, so a DFS visits what explicit I-arcs made it visit. It is the
// one adjacency walk every traversal shares.
type adjIter struct {
	row []arcEnd
	c   int // the chain neighbour not yet visited, or -1
}

func (inc *Incremental) adj(u int, fwd bool) adjIter {
	it := adjIter{inc.g.pred[u], u - 1}
	if fwd {
		it = adjIter{inc.g.succ[u], u + 1}
	}
	if it.c < 0 || !inc.link[min(u, it.c)] {
		it.c = -1
	}
	return it
}

func (it *adjIter) more() bool { return it.c >= 0 || len(it.row) > 0 }

func (it *adjIter) next() int {
	if it.c >= 0 && (len(it.row) == 0 || it.c < it.row[0].v) {
		v := it.c
		it.c = -1
		return v
	}
	v := it.row[0].v
	it.row = it.row[1:]
	return v
}

// toExt maps internal vertices to external IDs in place. ext is
// monotone in the internal index (compaction preserves relative
// order), so ascending input order is preserved.
func (inc *Incremental) toExt(vs []int) []int {
	for i, v := range vs {
		vs[i] = inc.ext[v]
	}
	return vs
}

// forwardSearch explores forward from start over vertices with order
// <= ub, marking visited vertices. It reports whether target was
// reached and returns the visited set (excluding target). Operates on
// internal indices.
func (inc *Incremental) forwardSearch(start, ub, target int) (bool, []int) {
	var visited []int
	stack := []int{start}
	inc.mark.Set(start)
	visited = append(visited, start)
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for it := inc.adj(w, true); it.more(); {
			s := it.next()
			if s == target {
				return true, visited
			}
			if inc.ord[s] <= ub && !inc.mark.Has(s) {
				inc.mark.Set(s)
				visited = append(visited, s)
				stack = append(stack, s)
			}
		}
	}
	return false, visited
}

// backwardSearch explores backward from start over vertices with order
// >= lb, marking and returning visited vertices. Internal indices.
func (inc *Incremental) backwardSearch(start, lb int) []int {
	var visited []int
	stack := []int{start}
	inc.mark.Set(start)
	visited = append(visited, start)
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for it := inc.adj(w, false); it.more(); {
			if p := it.next(); inc.ord[p] >= lb && !inc.mark.Has(p) {
				inc.mark.Set(p)
				visited = append(visited, p)
				stack = append(stack, p)
			}
		}
	}
	return visited
}

// reorder reassigns the positions occupied by deltaB ∪ deltaF so that
// every vertex of deltaB precedes every vertex of deltaF, preserving
// the relative order within each set. Internal indices.
func (inc *Incremental) reorder(deltaF, deltaB []int) {
	sort.Slice(deltaF, func(i, j int) bool { return inc.ord[deltaF[i]] < inc.ord[deltaF[j]] })
	sort.Slice(deltaB, func(i, j int) bool { return inc.ord[deltaB[i]] < inc.ord[deltaB[j]] })
	merged := make([]int, 0, len(deltaF)+len(deltaB))
	merged = append(merged, deltaB...)
	merged = append(merged, deltaF...)
	slots := make([]int, 0, len(merged))
	for _, v := range merged {
		slots = append(slots, inc.ord[v])
	}
	sort.Ints(slots)
	for i, v := range merged {
		inc.ord[v] = slots[i]
		inc.pos[slots[i]] = v
	}
}

func (inc *Incremental) clearMarks() { inc.mark.Reset() }

// AddArcBatch inserts a set of arcs atomically: either every arc is
// inserted and a valid topological order restored, or (when the union
// would close a directed cycle) none is and ErrCycle is returned.
//
// This is the epoch-batched cycle check the sharded scheduler hot path
// uses: per-shard dependency deltas accumulate into one batch and are
// merged with a single cycle sweep instead of one Pearce–Kelly
// insertion per arc. Accept/reject agrees exactly with inserting the
// arcs one at a time via AddArc with rollback-on-failure: if the union
// is acyclic every sequential prefix is a subgraph of an acyclic graph
// (so AddArc accepts each), and if the union is cyclic some prefix
// insertion must close the cycle (so a sequential pass aborts too).
//
// The sweep is a single Kahn pass restricted to the affected region of
// the maintained order. After inserting the arcs, let lb be the
// minimum order of any violating arc's head and ub the maximum order
// of any violating arc's tail (a violating arc u -> v has
// ord[u] > ord[v]). Any directed cycle is confined to positions
// [lb, ub]: the minimum-order vertex m of a cycle has an incoming
// cycle arc that is necessarily violating, so ord[m] >= lb, and
// symmetrically the maximum-order vertex's outgoing cycle arc is
// violating, bounding it by ub. Re-sorting just that slice of the
// order against its intra-region arcs therefore either exhibits the
// cycle or yields a globally valid order (arcs crossing the region
// boundary were forward before the batch and remain forward, since
// region vertices keep positions inside [lb, ub]).
func (inc *Incremental) AddArcBatch(arcs [][2]int) error {
	inc.mustSettle()
	for _, a := range arcs {
		if a[0] == a[1] {
			return ErrCycle
		}
	}
	lb, ub := -1, -1
	for _, a := range arcs {
		iu, iv := inc.mustInt(a[0]), inc.mustInt(a[1])
		inc.g.AddArc(iu, iv)
		ou, ov := inc.ord[iu], inc.ord[iv]
		if ou > ov {
			if lb < 0 || ov < lb {
				lb = ov
			}
			if ou > ub {
				ub = ou
			}
		}
	}
	if lb < 0 {
		return nil // every arc already forward: order untouched
	}
	if err := inc.resortRegion(lb, ub); err != nil {
		for _, a := range arcs {
			inc.g.RemoveArc(inc.mustInt(a[0]), inc.mustInt(a[1]))
		}
		return err
	}
	return nil
}

// AppendArcs inserts arcs the caller has already certified acyclic —
// the vector-clock fast path — without any cycle sweep. Only the
// deferred-settle window is extended; the maintained order is restored
// lazily by the next Settle (every order-consuming operation settles
// automatically first). Appending an arc that would close a cycle
// violates the contract and makes the next Settle panic.
func (inc *Incremental) AppendArcs(arcs [][2]int) {
	for _, a := range arcs {
		iu, iv := inc.mustInt(a[0]), inc.mustInt(a[1])
		inc.g.AddArc(iu, iv)
		ou, ov := inc.ord[iu], inc.ord[iv]
		if ou > ov {
			if inc.dirtyLb < 0 || ov < inc.dirtyLb {
				inc.dirtyLb = ov
			}
			if ou > inc.dirtyUb {
				inc.dirtyUb = ou
			}
		}
	}
}

// Settle restores the maintained topological order over the deferred
// window accumulated by AppendArcs. The window argument to the region
// resort is exactly the violating-arc bound AddArcBatch would have
// computed for the union of all appended arcs (ord is untouched while
// the window is dirty), so the single Kahn pass is sound here for the
// same reason it is there. It returns ErrCycle only if an AppendArcs
// caller broke its acyclicity contract; the arcs stay in place in that
// case, so callers treat the error as a certification bug, not a
// recoverable rejection.
func (inc *Incremental) Settle() error {
	if inc.dirtyLb < 0 {
		return nil
	}
	lb, ub := inc.dirtyLb, inc.dirtyUb
	inc.dirtyLb, inc.dirtyUb = -1, -1
	return inc.resortRegion(lb, ub)
}

// mustSettle settles before an order-consuming operation; a cycle here
// means an AppendArcs caller certified a cyclic batch, which is always
// a scheduler bug.
func (inc *Incremental) mustSettle() {
	if err := inc.Settle(); err != nil {
		panic("graph: Settle found a cycle — an AppendArcs caller broke its acyclicity contract")
	}
}

// RetireResult reports what a retirement epoch removed.
type RetireResult struct {
	// Retired counts vertices removed by this call.
	Retired int
	// Live counts vertices remaining after compaction.
	Live int
}

// Retire removes the given external vertex IDs from the structure in
// one epoch batch: any remaining incident arcs are dropped, and the
// Pearce–Kelly order, bitset and sparse adjacency are compacted over
// the surviving vertices. External IDs of survivors are unchanged
// (they are stable handles); retired IDs answer Retired(id) == true,
// degree/successor queries return empty, and FindPath treats them as
// unreachable. Already-retired IDs are skipped, so the call is
// idempotent.
//
// Soundness (why the scheduler may retire a committed transaction's
// vertices): new arcs always terminate at a live requester's vertices,
// so a committed transaction none of whose vertices can acquire an
// incoming arc — no live conflicting peer — can never rejoin a cycle;
// its vertices are permanently cycle-free and only occupy memory.
func (inc *Incremental) Retire(vs []int) RetireResult {
	inc.mustSettle()
	n := inc.g.Len()
	inc.remap = slices.Grow(inc.remap[:0], n)[:n] // -1 marks a dropped vertex
	remap := inc.remap
	clear(remap)
	cnt := 0
	for _, x := range vs {
		if v, live := inc.intOf(x); live && remap[v] == 0 {
			inc.isolate(v)
			remap[v] = -1
			cnt++
		}
	}
	if cnt == 0 {
		return RetireResult{Live: n}
	}
	m := n - cnt
	// Every array is compacted in place: the remap is monotone, so each
	// survivor moves down, never over one not yet read.
	next := 0
	for v, r := range remap {
		x := inc.ext[v]
		if r == 0 {
			remap[v] = next
			inc.ext[next], inc.link[next] = x, inc.link[v]
			next++
		}
		inc.intIdx[x-inc.base] = remap[v]
	}
	k := 0
	for _, v := range inc.pos {
		if nv := remap[v]; nv >= 0 {
			inc.pos[k] = nv
			k++
		}
	}
	inc.g.Compact(remap, m)
	inc.pos, inc.ord = shrink(inc.pos[:m], m, n), shrink(inc.ord[:m], m, n)
	for i, v := range inc.pos {
		inc.ord[v] = i
	}
	inc.ext, inc.link = shrink(inc.ext[:m], m, n), shrink(inc.link[:m], m, n)
	words := (m + wordBits - 1) / wordBits
	inc.mark = shrink(inc.mark[:words], words, max(n/wordBits, 1)) // all clear between searches
	inc.indeg, inc.ready = shrink(inc.indeg[:0], m, n), shrink(inc.ready[:0], m, n)
	inc.order, inc.remap = shrink(inc.order[:0], m, n), shrink(remap[:0], m, n)
	// Advance the base over the retired prefix so the indirection
	// table, too, shrinks with the live set.
	trim := 0
	for trim < len(inc.intIdx) && inc.intIdx[trim] == -1 {
		trim++
	}
	if trim > 0 {
		inc.base += trim
		inc.intIdx = append(inc.intIdx[:0], inc.intIdx[trim:]...)
	}
	inc.intIdx = shrink(inc.intIdx, len(inc.intIdx), n)
	inc.retired += cnt
	return RetireResult{Retired: cnt, Live: m}
}

// resortRegion recomputes the order of the vertices occupying
// positions [lb, ub] with one Kahn pass over the arcs internal to the
// region. On success ord/pos are updated in place; on a cycle they are
// left untouched and ErrCycle is returned. Ties break toward the
// vertex with the smallest previous position, keeping the result
// deterministic and close to the old order. Internal indices.
//
// A vertex s lies in the region iff its region index ord[s]-lb is in
// [0, n), and that index is also its previous position relative to lb,
// so the ready heap orders region indices directly.
func (inc *Incremental) resortRegion(lb, ub int) error {
	n := ub - lb + 1
	verts := inc.pos[lb : ub+1] // read-only until the final write-back
	indeg := slices.Grow(inc.indeg[:0], n)[:n]
	clear(indeg)
	heap, order := inc.ready[:0], inc.order[:0]
	for _, u := range verts {
		for it := inc.adj(u, true); it.more(); {
			if j := inc.ord[it.next()] - lb; j >= 0 && j < n {
				indeg[j]++
			}
		}
	}
	// Min-heap of ready region indices.
	push := func(j int) {
		heap = append(heap, j)
		for c := len(heap) - 1; c > 0; {
			p := (c - 1) / 2
			if heap[c] >= heap[p] {
				break
			}
			heap[c], heap[p] = heap[p], heap[c]
			c = p
		}
	}
	pop := func() int {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for p := 0; ; {
			c := 2*p + 1
			if c >= len(heap) {
				break
			}
			if c+1 < len(heap) && heap[c+1] < heap[c] {
				c++
			}
			if heap[c] >= heap[p] {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			p = c
		}
		return top
	}
	for j := 0; j < n; j++ {
		if indeg[j] == 0 {
			push(j)
		}
	}
	for len(heap) > 0 {
		u := verts[pop()]
		order = append(order, u)
		for it := inc.adj(u, true); it.more(); {
			if k := inc.ord[it.next()] - lb; k >= 0 && k < n {
				indeg[k]--
				if indeg[k] == 0 {
					push(k)
				}
			}
		}
	}
	inc.indeg, inc.ready, inc.order = indeg, heap, order
	if len(order) < n {
		return ErrCycle
	}
	for i, v := range order {
		inc.ord[v] = lb + i
	}
	copy(verts, order)
	return nil
}

// FindPath returns a directed path from -> ... -> to as a vertex
// sequence, or nil if to is unreachable. Schedulers use it to explain
// rejections: after AddArc(u, v) fails with ErrCycle, FindPath(v, u)
// plus the refused arc is a concrete cycle witness. The search prunes
// by the maintained topological order (any path stays within
// [Order(from), Order(to)]), so it touches only the affected region.
// Retired endpoints are unreachable by construction (their arcs are
// gone), so the path is nil rather than a panic on a remapped ID.
func (inc *Incremental) FindPath(from, to int) []int {
	if from == to {
		if _, ok := inc.intOf(from); !ok {
			return nil
		}
		return []int{from}
	}
	iFrom, okFrom := inc.intOf(from)
	iTo, okTo := inc.intOf(to)
	if !okFrom || !okTo {
		return nil
	}
	inc.mustSettle()
	if inc.ord[iFrom] > inc.ord[iTo] {
		return nil
	}
	parent := make(map[int]int, 16)
	parent[iFrom] = iFrom
	stack := []int{iFrom}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for it := inc.adj(w, true); it.more(); {
			s := it.next()
			if inc.ord[s] > inc.ord[iTo] {
				continue
			}
			if _, seen := parent[s]; seen {
				continue
			}
			parent[s] = w
			if s == iTo {
				var rev []int
				for v := iTo; ; v = parent[v] {
					rev = append(rev, v)
					if v == iFrom {
						break
					}
				}
				slices.Reverse(rev)
				return inc.toExt(rev)
			}
			stack = append(stack, s)
		}
	}
	return nil
}
