package graph

import "fmt"

// Dense is a directed graph over vertices 0..n-1 with bitset adjacency
// rows. It is the workhorse representation for serialization graphs and
// relative serialization graphs, where arc sets can be quadratic in the
// number of operations.
type Dense struct {
	n   int
	adj []Bitset // adj[u].Has(v) iff u -> v
}

// NewDense returns an empty dense digraph with n vertices.
func NewDense(n int) *Dense {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewDense with negative size %d", n))
	}
	g := &Dense{n: n, adj: make([]Bitset, n)}
	words := (n + wordBits - 1) / wordBits
	slab := make([]uint64, n*words) // one allocation for all rows
	for i := range g.adj {
		g.adj[i] = slab[i*words : (i+1)*words : (i+1)*words]
	}
	return g
}

// AddArc inserts the arc u -> v. Self-loops are permitted and are
// reported as cycles by HasCycle.
func (g *Dense) AddArc(u, v int) { g.adj[u].Set(v) }

// HasArc reports whether the arc u -> v is present.
func (g *Dense) HasArc(u, v int) bool { return g.adj[u].Has(v) }

// ArcCount returns the total number of arcs.
func (g *Dense) ArcCount() int {
	c := 0
	for _, row := range g.adj {
		c += row.Count()
	}
	return c
}

// Arcs calls fn for every arc in (u, v) lexicographic order.
func (g *Dense) Arcs(fn func(u, v int) bool) {
	for u := 0; u < g.n; u++ {
		stop := false
		g.adj[u].ForEach(func(v int) bool {
			if !fn(u, v) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

const (
	colorWhite = 0 // unvisited
	colorGray  = 1 // on the DFS stack
	colorBlack = 2 // finished
)

// HasCycle reports whether the graph contains a directed cycle
// (including self-loops): TopoOrder finds no ordering.
func (g *Dense) HasCycle() bool {
	_, ok := g.TopoOrder()
	return !ok
}

// FindCycle returns one directed cycle as a vertex sequence
// v0 -> v1 -> ... -> vk -> v0 (v0 repeated at the end is omitted), or
// nil if the graph is acyclic.
func (g *Dense) FindCycle() []int {
	color := make([]byte, g.n)
	parent := make([]int, g.n)
	for i := range parent {
		parent[i] = -1
	}
	type frame struct {
		u    int
		iter int // next word index hint is overkill; track successor cursor
	}
	// We iterate successors by materializing them per frame; rows are
	// bitsets so we walk them with an explicit cursor.
	var stack []frame
	cursor := make([][]int, g.n)
	for s := 0; s < g.n; s++ {
		if color[s] != colorWhite {
			continue
		}
		color[s] = colorGray
		cursor[s] = g.adj[s].Elements()
		stack = stack[:0]
		stack = append(stack, frame{u: s})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			u := f.u
			if f.iter < len(cursor[u]) {
				v := cursor[u][f.iter]
				f.iter++
				switch color[v] {
				case colorWhite:
					color[v] = colorGray
					parent[v] = u
					cursor[v] = g.adj[v].Elements()
					stack = append(stack, frame{u: v})
				case colorGray:
					// Found a cycle: walk parents from u back to v.
					cyc := []int{v}
					for w := u; w != v; w = parent[w] {
						cyc = append(cyc, w)
					}
					// Reverse so the cycle reads in arc direction.
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					return cyc
				}
			} else {
				color[u] = colorBlack
				cursor[u] = nil
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// TopoOrder returns a topological ordering of the vertices and true,
// or (nil, false) if the graph has a cycle: TopoOrderPreferring with
// vertices ranked by number.
func (g *Dense) TopoOrder() ([]int, bool) { return g.TopoOrderPreferring(nil) }

// TopoOrderPreferring returns a topological ordering that, among ready
// vertices, picks the one with the smallest rank[v] (ties broken by
// vertex number); a nil rank picks the smallest ready vertex. This lets
// callers bias the linearization, e.g. toward an original schedule
// order. It is Kahn's algorithm; it returns (nil, false) on a cycle.
func (g *Dense) TopoOrderPreferring(rank []int) ([]int, bool) {
	if rank != nil && len(rank) != g.n {
		panic(fmt.Sprintf("graph: TopoOrderPreferring rank length %d != %d vertices", len(rank), g.n))
	}
	indeg := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		g.adj[u].ForEach(func(v int) bool {
			indeg[v]++
			return true
		})
	}
	ready := NewBitset(g.n)
	nReady := 0
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			ready.Set(v)
			nReady++
		}
	}
	order := make([]int, 0, g.n)
	for nReady > 0 {
		best := -1
		ready.ForEach(func(i int) bool {
			if best == -1 || rank[i] < rank[best] {
				best = i
			}
			return rank != nil // by number, the first ready vertex wins
		})
		ready.Clear(best)
		nReady--
		order = append(order, best)
		g.adj[best].ForEach(func(v int) bool {
			indeg[v]--
			if indeg[v] == 0 {
				ready.Set(v)
				nReady++
			}
			return true
		})
	}
	if len(order) != g.n {
		return nil, false
	}
	return order, true
}

// Reachable returns the set of vertices reachable from u by one or more
// arcs (u itself is included only if it lies on a cycle through u).
func (g *Dense) Reachable(u int) Bitset {
	seen := NewBitset(g.n)
	var stack []int
	g.adj[u].ForEach(func(v int) bool {
		if !seen.Has(v) {
			seen.Set(v)
			stack = append(stack, v)
		}
		return true
	})
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.adj[w].ForEach(func(v int) bool {
			if !seen.Has(v) {
				seen.Set(v)
				stack = append(stack, v)
			}
			return true
		})
	}
	return seen
}

// TransitiveClosure returns a new graph with an arc u -> v whenever v
// is reachable from u in g.
func (g *Dense) TransitiveClosure() *Dense {
	// Process in reverse topological order when possible so each row is
	// the union of successor rows; fall back to per-vertex BFS on cyclic
	// graphs.
	tc := NewDense(g.n)
	order, ok := g.TopoOrder()
	if ok {
		for i := len(order) - 1; i >= 0; i-- {
			u := order[i]
			row := tc.adj[u]
			g.adj[u].ForEach(func(v int) bool {
				row.Set(v)
				row.UnionWith(tc.adj[v])
				return true
			})
		}
		return tc
	}
	for u := 0; u < g.n; u++ {
		tc.adj[u] = g.Reachable(u)
	}
	return tc
}
