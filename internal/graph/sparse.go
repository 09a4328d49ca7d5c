package graph

import (
	"fmt"
	"sort"
)

// Sparse is a directed graph with adjacency lists and O(1) arc
// multiplicity tracking. It supports vertex growth and arc removal,
// which the online schedulers need (transactions come and go).
type Sparse struct {
	succ  []map[int]int // succ[u][v] = multiplicity of arc u -> v
	pred  []map[int]int
	nArcs int // distinct arcs
}

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
		g.succ = append(g.succ, nil)
		g.pred = append(g.pred, nil)
	}
}

// AddVertex appends a fresh vertex and returns its index.
func (g *Sparse) AddVertex() int {
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return len(g.succ) - 1
}

// AddArc inserts the arc u -> v, incrementing its multiplicity if it
// already exists. Multiplicity lets independent arc producers (e.g.
// different arc kinds in an RSG) add and remove the same arc without
// coordinating.
func (g *Sparse) AddArc(u, v int) {
	succ := g.succ[u]
	if succ == nil {
		succ = make(map[int]int)
		g.succ[u] = succ
	}
	pred := g.pred[v]
	if pred == nil {
		pred = make(map[int]int)
		g.pred[v] = pred
	}
	// One read-modify-write per direction; a grown map is a new arc.
	n := len(succ)
	succ[v]++
	pred[u]++
	if len(succ) > n {
		g.nArcs++
	}
}

// RemoveArc decrements the multiplicity of u -> v, deleting the arc
// when it reaches zero. Removing an absent arc panics: it always
// indicates a bookkeeping bug in the caller.
func (g *Sparse) RemoveArc(u, v int) {
	m, ok := g.succ[u][v]
	if !ok {
		panic(fmt.Sprintf("graph: RemoveArc(%d, %d): arc not present", u, v))
	}
	if m == 1 {
		delete(g.succ[u], v)
		delete(g.pred[v], u)
		g.nArcs--
	} else {
		g.succ[u][v] = m - 1
		g.pred[v][u] = m - 1
	}
}

// HasArc reports whether the arc u -> v is present.
func (g *Sparse) HasArc(u, v int) bool { return g.succ[u][v] > 0 }

// ArcCount returns the number of distinct arcs.
func (g *Sparse) ArcCount() int { return g.nArcs }

// IsolateVertex removes every arc incident to u, leaving the vertex in
// place (vertex indices are stable handles for callers).
func (g *Sparse) IsolateVertex(u int) {
	for v := range g.succ[u] {
		delete(g.pred[v], u)
		g.nArcs--
	}
	g.succ[u] = nil
	for p := range g.pred[u] {
		delete(g.succ[p], u)
		g.nArcs--
	}
	g.pred[u] = nil
}

// Compact renumbers the vertex set according to remap (remap[old] =
// new index, or -1 for a dropped vertex), shrinking it to m vertices.
// Dropped vertices must already be isolated: a dangling arc touching
// one always indicates a bookkeeping bug in the caller, so Compact
// panics rather than silently dropping it. Retirement epochs use this
// to reclaim the adjacency slots of pruned transactions.
func (g *Sparse) Compact(remap []int, m int) {
	if len(remap) != len(g.succ) {
		panic(fmt.Sprintf("graph: Compact remap has %d entries for %d vertices", len(remap), len(g.succ)))
	}
	g.succ = compactAdj(g.succ, remap, m)
	g.pred = compactAdj(g.pred, remap, m)
}

func compactAdj(adj []map[int]int, remap []int, m int) []map[int]int {
	out := make([]map[int]int, m)
	for u, row := range adj {
		nu := remap[u]
		if nu < 0 {
			if len(row) > 0 {
				panic(fmt.Sprintf("graph: Compact dropping vertex %d with %d arcs", u, len(row)))
			}
			continue
		}
		if len(row) == 0 {
			continue
		}
		nr := make(map[int]int, len(row))
		for v, mult := range row {
			nv := remap[v]
			if nv < 0 {
				panic(fmt.Sprintf("graph: Compact dropped vertex %d still has an arc with %d", v, u))
			}
			nr[nv] = mult
		}
		out[nu] = nr
	}
	return out
}

// Successors returns the successors of u in ascending order.
func (g *Sparse) Successors(u int) []int { return sortedKeys(g.succ[u]) }

// Predecessors returns the predecessors of u in ascending order.
func (g *Sparse) Predecessors(u int) []int { return sortedKeys(g.pred[u]) }

// hasPredecessorOutside reports whether u has a predecessor outside
// [lo, hi], without allocating.
func (g *Sparse) hasPredecessorOutside(u, lo, hi int) bool {
	for p := range g.pred[u] {
		if p < lo || p > hi {
			return true
		}
	}
	return false
}

// OutDegree returns the number of distinct successors of u.
func (g *Sparse) OutDegree(u int) int { return len(g.succ[u]) }

// InDegree returns the number of distinct predecessors of u.
func (g *Sparse) InDegree(u int) int { return len(g.pred[u]) }

func sortedKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

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
		next []int
		i    int
	}
	for _, s := range roots {
		if color[s] != colorWhite {
			continue
		}
		color[s] = colorGray
		stack := []frame{{u: s, next: g.Successors(s)}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i < len(f.next) {
				v := f.next[f.i]
				f.i++
				switch color[v] {
				case colorWhite:
					color[v] = colorGray
					parent[v] = f.u
					stack = append(stack, frame{u: v, next: g.Successors(v)})
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
		for v := range g.succ[u] {
			if v == target {
				return true
			}
			if !seen.Has(v) {
				seen.Set(v)
				stack = append(stack, v)
			}
		}
	}
	return false
}
