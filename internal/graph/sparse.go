package graph

import (
	"fmt"
	"slices"
)

// Sparse is a directed graph with adjacency lists and arc multiplicity
// tracking. It supports vertex growth and arc removal, which the online
// schedulers need (transactions come and go).
//
// Each vertex keeps its successors and its predecessors as slices
// sorted by vertex, so a lookup is a binary search, a row walk is in
// ascending order without sorting, and the lowest and highest neighbour
// are the row's ends.
type Sparse struct {
	succ  [][]arcEnd // succ[u]: the arcs u -> v, sorted by v
	pred  [][]arcEnd // pred[v]: the arcs u -> v, sorted by u
	nArcs int        // distinct arcs
}

// arcEnd is one neighbour in an adjacency row and the multiplicity of
// the arc to (or from) it.
type arcEnd struct{ v, mult int }

// NewSparse returns an empty sparse digraph with n vertices.
func NewSparse(n int) *Sparse {
	g := &Sparse{}
	g.Grow(n)
	return g
}

// Len returns the current number of vertices.
func (g *Sparse) Len() int { return len(g.succ) }

// Grow extends the vertex set to at least n vertices.
func (g *Sparse) Grow(n int) {
	for len(g.succ) < n {
		g.AddVertex()
	}
}

// AddVertex appends a fresh vertex and returns its index.
func (g *Sparse) AddVertex() int {
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return len(g.succ) - 1
}

// find returns the index of v in row, or where it would be inserted,
// and whether it is present.
func find(row []arcEnd, v int) (int, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if row[m].v < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(row) && row[lo].v == v
}

// AddArc inserts the arc u -> v, incrementing its multiplicity if it
// already exists. Multiplicity lets independent arc producers (e.g.
// different arc kinds in an RSG) add and remove the same arc without
// coordinating.
func (g *Sparse) AddArc(u, v int) {
	i, ok := find(g.succ[u], v)
	j, _ := find(g.pred[v], u)
	if ok {
		g.succ[u][i].mult++
		g.pred[v][j].mult++
		return
	}
	g.succ[u] = slices.Insert(g.succ[u], i, arcEnd{v, 1})
	g.pred[v] = slices.Insert(g.pred[v], j, arcEnd{u, 1})
	g.nArcs++
}

// RemoveArc decrements the multiplicity of u -> v, deleting the arc
// when it reaches zero. Removing an absent arc panics: it always
// indicates a bookkeeping bug in the caller.
func (g *Sparse) RemoveArc(u, v int) {
	i, ok := find(g.succ[u], v)
	if !ok {
		panic(fmt.Sprintf("graph: RemoveArc(%d, %d): arc not present", u, v))
	}
	j, _ := find(g.pred[v], u)
	if g.succ[u][i].mult > 1 {
		g.succ[u][i].mult--
		g.pred[v][j].mult--
		return
	}
	g.succ[u] = slices.Delete(g.succ[u], i, i+1)
	g.pred[v] = slices.Delete(g.pred[v], j, j+1)
	g.nArcs--
}

// HasArc reports whether the arc u -> v is present.
func (g *Sparse) HasArc(u, v int) bool {
	_, ok := find(g.succ[u], v)
	return ok
}

// ArcCount returns the number of distinct arcs.
func (g *Sparse) ArcCount() int { return g.nArcs }

// IsolateVertex removes every arc incident to u, leaving the vertex in
// place (vertex indices are stable handles for callers). u's own rows
// are released, not kept for reuse: a vertex that is isolated is
// usually finished, and its rows would otherwise stay allocated for as
// long as the vertex exists.
func (g *Sparse) IsolateVertex(u int) {
	for _, e := range g.succ[u] {
		g.pred[e.v] = dropFrom(g.pred[e.v], u)
	}
	g.nArcs -= len(g.succ[u])
	g.succ[u] = nil
	for _, e := range g.pred[u] {
		g.succ[e.v] = dropFrom(g.succ[e.v], u)
	}
	g.nArcs -= len(g.pred[u])
	g.pred[u] = nil
}

// dropFrom removes the entry for v, which must be present, from row.
func dropFrom(row []arcEnd, v int) []arcEnd {
	i, _ := find(row, v)
	return slices.Delete(row, i, i+1)
}

// Compact renumbers the vertex set according to remap (remap[old] =
// new index, or -1 for a dropped vertex), shrinking it to m vertices.
// remap must keep the kept vertices in their relative order (old < old'
// implies new < new'), which is what lets every row be renumbered in
// place and stay sorted. Dropped vertices must already be isolated: a
// dangling arc touching one always indicates a bookkeeping bug in the
// caller, so Compact panics rather than silently dropping it, as it
// does on a remap that reorders. Retirement epochs use this to reclaim
// the adjacency slots of pruned transactions.
func (g *Sparse) Compact(remap []int, m int) {
	if len(remap) != len(g.succ) {
		panic(fmt.Sprintf("graph: Compact remap has %d entries for %d vertices", len(remap), len(g.succ)))
	}
	g.succ = compactAdj(g.succ, remap, m)
	g.pred = compactAdj(g.pred, remap, m)
}

// compactAdj moves each kept row, renumbered in place, into a fresh
// outer slice of m rows, so the slots of dropped vertices are released
// with the old one.
func compactAdj(adj [][]arcEnd, remap []int, m int) [][]arcEnd {
	out := make([][]arcEnd, m)
	last := -1
	for u, row := range adj {
		nu := remap[u]
		if nu < 0 {
			if len(row) > 0 {
				panic(fmt.Sprintf("graph: Compact dropping vertex %d with %d arcs", u, len(row)))
			}
			continue
		}
		if nu <= last {
			panic(fmt.Sprintf("graph: Compact remap moves vertex %d to %d, not after %d", u, nu, last))
		}
		last = nu
		for i, e := range row {
			if row[i].v = remap[e.v]; row[i].v < 0 {
				panic(fmt.Sprintf("graph: Compact dropped vertex %d still has an arc with %d", e.v, u))
			}
		}
		out[nu] = row
	}
	return out
}

// Successors returns the successors of u in ascending order, in a
// fresh slice the caller may modify.
func (g *Sparse) Successors(u int) []int { return vertices(g.succ[u]) }

// Predecessors returns the predecessors of u in ascending order, in a
// fresh slice the caller may modify.
func (g *Sparse) Predecessors(u int) []int { return vertices(g.pred[u]) }

func vertices(row []arcEnd) []int {
	out := make([]int, len(row))
	for i, e := range row {
		out[i] = e.v
	}
	return out
}

// hasPredecessorOutside reports whether u has a predecessor outside
// [lo, hi]: the row is sorted, so only its ends need looking at.
func (g *Sparse) hasPredecessorOutside(u, lo, hi int) bool {
	row := g.pred[u]
	return len(row) > 0 && (row[0].v < lo || row[len(row)-1].v > hi)
}

// OutDegree returns the number of distinct successors of u.
func (g *Sparse) OutDegree(u int) int { return len(g.succ[u]) }

// InDegree returns the number of distinct predecessors of u.
func (g *Sparse) InDegree(u int) int { return len(g.pred[u]) }

// HasCycle reports whether the graph contains a directed cycle.
func (g *Sparse) HasCycle() bool {
	return g.FindCycleFrom(-1) != nil
}

// FindCycleFrom returns a directed cycle as a vertex sequence, or nil
// if none exists. If start >= 0, only cycles reachable from start are
// searched, which is the common case for incremental checks after
// adding arcs out of start.
func (g *Sparse) FindCycleFrom(start int) []int {
	n := len(g.succ)
	color := make([]byte, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	roots := make([]int, 0, n)
	if start >= 0 {
		roots = append(roots, start)
	} else {
		for v := 0; v < n; v++ {
			roots = append(roots, v)
		}
	}
	type frame struct {
		u    int
		next []arcEnd
		i    int
	}
	for _, s := range roots {
		if color[s] != colorWhite {
			continue
		}
		color[s] = colorGray
		stack := []frame{{u: s, next: g.succ[s]}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i < len(f.next) {
				v := f.next[f.i].v
				f.i++
				switch color[v] {
				case colorWhite:
					color[v] = colorGray
					parent[v] = f.u
					stack = append(stack, frame{u: v, next: g.succ[v]})
				case colorGray:
					cyc := []int{v}
					for w := f.u; w != v; w = parent[w] {
						cyc = append(cyc, w)
					}
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					return cyc
				}
			} else {
				color[f.u] = colorBlack
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// ReachableFrom reports whether target is reachable from source via one
// or more arcs.
func (g *Sparse) ReachableFrom(source, target int) bool {
	n := len(g.succ)
	seen := NewBitset(n)
	stack := []int{source}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.succ[u] {
			if e.v == target {
				return true
			}
			if !seen.Has(e.v) {
				seen.Set(e.v)
				stack = append(stack, e.v)
			}
		}
	}
	return false
}
