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
	g.succ, g.pred = addRow(g.succ), addRow(g.pred)
	return len(g.succ) - 1
}

// addRow appends an empty row, reusing the buffer Compact left in the
// slot past the end, if any.
func addRow(adj [][]arcEnd) [][]arcEnd {
	if n := len(adj); n < cap(adj) {
		adj = adj[:n+1]
		adj[n] = adj[n][:0]
		return adj
	}
	return append(adj, nil)
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

// IsolateVertex removes every arc incident to u, leaving the vertex in
// place (vertex indices are stable handles for callers). u's own rows
// are released, not kept for reuse: a vertex that is isolated is
// usually finished, and its rows would otherwise stay allocated for as
// long as the vertex exists.
func (g *Sparse) IsolateVertex(u int) {
	g.isolate(u)
	g.succ[u], g.pred[u] = nil, nil
}

// isolate is IsolateVertex keeping u's emptied rows, for a caller that
// drops u soon: Compact then leaves them to the vertices added next.
func (g *Sparse) isolate(u int) {
	for _, e := range g.succ[u] {
		g.pred[e.v] = dropFrom(g.pred[e.v], u)
	}
	g.nArcs -= len(g.succ[u])
	g.succ[u] = g.succ[u][:0]
	for _, e := range g.pred[u] {
		g.succ[e.v] = dropFrom(g.succ[e.v], u)
	}
	g.nArcs -= len(g.pred[u])
	g.pred[u] = g.pred[u][:0]
}

// dropFrom removes the entry for v, which must be present, from row.
func dropFrom(row []arcEnd, v int) []arcEnd {
	i, _ := find(row, v)
	return slices.Delete(row, i, i+1)
}

// Compact renumbers the vertex set according to remap (remap[old] =
// new index, or -1 for a dropped vertex), shrinking it to m vertices.
// remap must number the kept vertices 0..m-1 in their relative order
// (old < old' implies new < new'), which is what lets every row be
// renumbered and moved down in place and stay sorted. Dropped vertices
// must already be isolated: a dangling arc touching one always
// indicates a bookkeeping bug in the caller, so Compact panics rather
// than silently dropping it, as it does on a remap that reorders.
// Retirement epochs use this to reclaim the adjacency slots of evicted
// transactions.
func (g *Sparse) Compact(remap []int, m int) {
	if len(remap) != len(g.succ) {
		panic(fmt.Sprintf("graph: Compact remap has %d entries for %d vertices", len(remap), len(g.succ)))
	}
	last, kept := -1, 0
	for u, nu := range remap {
		if nu >= 0 {
			if nu <= last {
				panic(fmt.Sprintf("graph: Compact remap moves vertex %d to %d, not after %d", u, nu, last))
			}
			last, kept = nu, kept+1
		}
	}
	if last != m-1 || kept != m {
		panic(fmt.Sprintf("graph: Compact remap is not onto 0..%d", m-1))
	}
	g.succ = compactAdj(g.succ, remap, m)
	g.pred = compactAdj(g.pred, remap, m)
}

// compactAdj swaps each kept row, renumbered in place, down to its new
// slot: remap is dense and monotone, so the kept rows end up in order
// in front and the dropped ones, empty, past the end for AddVertex.
func compactAdj(adj [][]arcEnd, remap []int, m int) [][]arcEnd {
	for u, row := range adj {
		nu := remap[u]
		if nu < 0 {
			if len(row) > 0 {
				panic(fmt.Sprintf("graph: Compact dropping vertex %d with %d arcs", u, len(row)))
			}
			continue
		}
		for i, e := range row {
			if row[i].v = remap[e.v]; row[i].v < 0 {
				panic(fmt.Sprintf("graph: Compact dropped vertex %d still has an arc with %d", e.v, u))
			}
		}
		adj[nu], adj[u] = row, adj[nu]
	}
	return shrink(adj[:m], m, len(adj))
}

// shrink is the one rule that bounds what a compaction from n to live
// vertices retains: once s's capacity exceeds four times n it is
// reallocated with room for twice live. Measured against n rather than
// live, a graph that drains in every epoch keeps its capacity, and one
// that shrank keeps only what its last epoch needed.
func shrink[S ~[]E, E any](s S, live, n int) S {
	if cap(s) > 4*n {
		return append(make(S, 0, 2*live), s...)
	}
	return s
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
