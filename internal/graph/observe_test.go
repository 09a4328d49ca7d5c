package graph

import "errors"

// Observers and invariant checks of the graph types that only the tests
// use: they read the structures the schedulers maintain, so they live
// beside them, but no scheduler asks these questions.

// Retired reports whether the external vertex ID has been retired.
// IDs never handed out by AddVertex panic.
func (inc *Incremental) Retired(x int) bool {
	_, live := inc.intOf(x)
	return !live
}

// HasArc reports whether the arc u -> v is present. Retired endpoints
// have no arcs.
func (inc *Incremental) HasArc(u, v int) bool {
	iu, okU := inc.intOf(u)
	iv, okV := inc.intOf(v)
	if !okU || !okV {
		return false
	}
	return iv == iu+1 && inc.link[iu] || inc.g.HasArc(iu, iv)
}

// ArcCount returns the number of distinct arcs.
func (inc *Incremental) ArcCount() int { return inc.g.ArcCount() + inc.links }

// Order returns the current topological position of v among the live
// vertices; if u precedes v in every linear extension seen so far then
// Order(u) < Order(v). Retired vertices return -1. Positions are
// recomputed by retirement compaction, so they are only comparable
// between calls with no intervening Retire.
func (inc *Incremental) Order(v int) int {
	iv, ok := inc.intOf(v)
	if !ok {
		return -1
	}
	inc.mustSettle()
	return inc.ord[iv]
}

// Predecessors returns the predecessors of u in ascending external-ID
// order; nil for retired vertices.
func (inc *Incremental) Predecessors(u int) []int { return inc.adjacent(u, false) }

// InDegree returns the number of distinct predecessors of u (zero once
// retired).
func (inc *Incremental) InDegree(u int) int {
	iu, ok := inc.intOf(u)
	if !ok {
		return 0
	}
	return inc.g.InDegree(iu) + inc.chained(iu-1)
}

// OutDegree returns the number of distinct successors of u (zero once
// retired).
func (inc *Incremental) OutDegree(u int) int {
	iu, ok := inc.intOf(u)
	if !ok {
		return 0
	}
	return inc.g.OutDegree(iu) + inc.chained(iu)
}

// chained is 1 if the chain arc v -> v+1 is present, else 0.
func (inc *Incremental) chained(v int) int {
	if v >= 0 && inc.link[v] {
		return 1
	}
	return 0
}

// TopoOrder returns the maintained topological order of the live
// vertices as a slice of external IDs.
func (inc *Incremental) TopoOrder() []int {
	inc.mustSettle()
	out := make([]int, len(inc.pos))
	copy(out, inc.pos)
	return inc.toExt(out)
}

// Verify checks the internal invariants (ord/pos inverse bijection,
// every arc forward in the order, external-ID indirection consistent).
// It is used by tests and is cheap enough to call in debug builds.
func (inc *Incremental) Verify() error {
	inc.mustSettle()
	for v, o := range inc.ord {
		if inc.pos[o] != v {
			return errors.New("graph: ord/pos bijection broken")
		}
	}
	n := inc.g.Len()
	for u := 0; u < n; u++ {
		for it := inc.adj(u, true); it.more(); {
			if inc.ord[u] >= inc.ord[it.next()] {
				return errors.New("graph: arc violates maintained topological order")
			}
		}
	}
	if len(inc.ext) != n || len(inc.link) != n || n > 0 && inc.link[n-1] {
		return errors.New("graph: ext or chain flags diverged from the vertices")
	}
	live := 0
	for i, v := range inc.intIdx {
		if v < 0 {
			continue
		}
		live++
		if v >= n || inc.ext[v] != inc.base+i {
			return errors.New("graph: external-ID indirection broken")
		}
	}
	if live != n {
		return errors.New("graph: intIdx live count diverged from vertex count")
	}
	if n > len(inc.mark)*wordBits {
		return errors.New("graph: mark bitset under-allocated")
	}
	return nil
}

// OutDegree returns the number of distinct successors of u.
func (g *Sparse) OutDegree(u int) int { return len(g.succ[u]) }

// InDegree returns the number of distinct predecessors of u.
func (g *Sparse) InDegree(u int) int { return len(g.pred[u]) }

// ArcCount returns the number of distinct arcs.
func (g *Sparse) ArcCount() int { return g.nArcs }

// Clone returns an independent copy of b.
func (b Bitset) Clone() Bitset {
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}
