package graph

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestSparseAddRemoveArc(t *testing.T) {
	g := NewSparse(3)
	g.AddArc(0, 1)
	g.AddArc(0, 1) // multiplicity 2
	g.AddArc(1, 2)
	if !g.HasArc(0, 1) || !g.HasArc(1, 2) {
		t.Fatal("arcs missing after AddArc")
	}
	if g.ArcCount() != 2 {
		t.Fatalf("ArcCount = %d, want 2 distinct arcs", g.ArcCount())
	}
	g.RemoveArc(0, 1)
	if !g.HasArc(0, 1) {
		t.Fatal("arc with multiplicity 2 vanished after one removal")
	}
	g.RemoveArc(0, 1)
	if g.HasArc(0, 1) {
		t.Fatal("arc still present after removing both multiplicities")
	}
	if g.ArcCount() != 1 {
		t.Fatalf("ArcCount = %d, want 1", g.ArcCount())
	}
}

func TestSparseRemoveAbsentArcPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RemoveArc on absent arc should panic")
		}
	}()
	NewSparse(2).RemoveArc(0, 1)
}

func TestSparseIsolateVertex(t *testing.T) {
	g := NewSparse(4)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	g.AddArc(3, 1)
	g.IsolateVertex(1)
	if g.ArcCount() != 0 {
		t.Fatalf("ArcCount = %d after isolating hub, want 0", g.ArcCount())
	}
	if g.HasArc(0, 1) || g.HasArc(1, 2) || g.HasArc(3, 1) {
		t.Fatal("arcs incident to isolated vertex remain")
	}
	// The vertex remains usable.
	g.AddArc(1, 3)
	if !g.HasArc(1, 3) {
		t.Fatal("isolated vertex cannot grow new arcs")
	}
}

func TestSparseSuccessorsPredecessorsSorted(t *testing.T) {
	g := NewSparse(5)
	g.AddArc(2, 4)
	g.AddArc(2, 0)
	g.AddArc(2, 3)
	g.AddArc(1, 2)
	g.AddArc(4, 2)
	succ := vertices(g.succ[2])
	want := []int{0, 3, 4}
	if len(succ) != len(want) {
		t.Fatalf("Successors = %v, want %v", succ, want)
	}
	for i := range want {
		if succ[i] != want[i] {
			t.Fatalf("Successors = %v, want %v", succ, want)
		}
	}
	pred := vertices(g.pred[2])
	if len(pred) != 2 || pred[0] != 1 || pred[1] != 4 {
		t.Fatalf("Predecessors = %v, want [1 4]", pred)
	}
	if g.OutDegree(2) != 3 || g.InDegree(2) != 2 {
		t.Fatalf("degrees = (%d out, %d in), want (3, 2)", g.OutDegree(2), g.InDegree(2))
	}
}

func TestSparseCycleDetection(t *testing.T) {
	g := NewSparse(4)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	g.AddArc(2, 3)
	if g.FindCycleFrom(-1) != nil {
		t.Fatal("path reported cyclic")
	}
	g.AddArc(3, 1)
	if g.FindCycleFrom(-1) == nil {
		t.Fatal("cycle 1->2->3->1 not detected")
	}
	cyc := g.FindCycleFrom(-1)
	if len(cyc) != 3 {
		t.Fatalf("cycle = %v, want length 3", cyc)
	}
	for i := range cyc {
		if !g.HasArc(cyc[i], cyc[(i+1)%len(cyc)]) {
			t.Fatalf("returned sequence %v is not a cycle", cyc)
		}
	}
}

func TestSparseFindCycleFromScoped(t *testing.T) {
	g := NewSparse(5)
	// Cycle among 0,1; vertex 4 cannot reach it.
	g.AddArc(0, 1)
	g.AddArc(1, 0)
	g.AddArc(4, 3)
	if cyc := g.FindCycleFrom(4); cyc != nil {
		t.Fatalf("FindCycleFrom(4) = %v, want nil (cycle unreachable)", cyc)
	}
	if cyc := g.FindCycleFrom(0); cyc == nil {
		t.Fatal("FindCycleFrom(0) missed the reachable cycle")
	}
}

func TestSparseGrowAndAddVertex(t *testing.T) {
	g := NewSparse(0)
	v0 := g.AddVertex()
	v1 := g.AddVertex()
	if v0 != 0 || v1 != 1 {
		t.Fatalf("AddVertex returned %d, %d", v0, v1)
	}
	g.Grow(5)
	if g.Len() != 5 {
		t.Fatalf("Len = %d after Grow(5)", g.Len())
	}
	g.AddArc(4, 0)
	if !g.HasArc(4, 0) {
		t.Fatal("arc to grown vertex missing")
	}
}

func TestSparseCycleAgreesWithDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(15)
		s := NewSparse(n)
		d := NewDense(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.15 {
					s.AddArc(u, v)
					d.AddArc(u, v)
				}
			}
		}
		if cyclic := s.FindCycleFrom(-1) != nil; cyclic != d.HasCycle() {
			t.Fatalf("trial %d: sparse=%v dense=%v disagree", trial, cyclic, d.HasCycle())
		}
	}
}

// sparseModel is the reference Sparse is checked against: a plain map
// from arc to multiplicity over n vertices.
type sparseModel struct {
	n    int
	mult map[[2]int]int
}

func (m *sparseModel) neighbours(u int, out bool) []int {
	var vs []int
	for a := range m.mult {
		if out && a[0] == u {
			vs = append(vs, a[1])
		} else if !out && a[1] == u {
			vs = append(vs, a[0])
		}
	}
	sort.Ints(vs)
	return vs
}

// vertices lists a row's neighbours in row order.
func vertices(row []arcEnd) []int {
	out := make([]int, len(row))
	for i, e := range row {
		out[i] = e.v
	}
	return out
}

func (m *sparseModel) isolate(u int) {
	for a := range m.mult {
		if a[0] == u || a[1] == u {
			delete(m.mult, a)
		}
	}
}

// checkAgainstModel compares every observable of g with the model:
// rows (sorted) and multiplicities in both directions, degrees, HasArc
// and ArcCount.
func checkAgainstModel(t *testing.T, step int, g *Sparse, m *sparseModel) {
	t.Helper()
	if g.Len() != m.n || g.ArcCount() != len(m.mult) {
		t.Fatalf("step %d: Len=%d ArcCount=%d, model has %d vertices and %d arcs", step, g.Len(), g.ArcCount(), m.n, len(m.mult))
	}
	for u := 0; u < m.n; u++ {
		for _, e := range g.succ[u] {
			if want := m.mult[[2]int{u, e.v}]; e.mult != want {
				t.Fatalf("step %d: succ %d -> %d multiplicity %d, model %d", step, u, e.v, e.mult, want)
			}
		}
		for _, e := range g.pred[u] {
			if want := m.mult[[2]int{e.v, u}]; e.mult != want {
				t.Fatalf("step %d: pred %d -> %d multiplicity %d, model %d", step, e.v, u, e.mult, want)
			}
		}
		for _, out := range []bool{true, false} {
			row, degree := g.pred[u], g.InDegree
			if out {
				row, degree = g.succ[u], g.OutDegree
			}
			want := m.neighbours(u, out)
			if got := vertices(row); !slices.Equal(got, want) || degree(u) != len(want) {
				t.Fatalf("step %d: vertex %d neighbours (out=%v) %v degree %d, model %v", step, u, out, got, degree(u), want)
			}
		}
		for v := 0; v < m.n; v++ {
			if g.HasArc(u, v) != (m.mult[[2]int{u, v}] > 0) {
				t.Fatalf("step %d: HasArc(%d, %d) = %v", step, u, v, g.HasArc(u, v))
			}
		}
	}
}

func TestSparseMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(6)
		g, m := NewSparse(n), &sparseModel{n: n, mult: make(map[[2]int]int)}
		for step := 0; step < 120; step++ {
			switch r := rng.Intn(20); {
			case r < 9: // AddArc, self-loops included
				u, v := rng.Intn(m.n), rng.Intn(m.n)
				g.AddArc(u, v)
				m.mult[[2]int{u, v}]++
			case r < 14: // RemoveArc of a present arc
				arcs := make([][2]int, 0, len(m.mult))
				for a := range m.mult {
					arcs = append(arcs, a)
				}
				if len(arcs) == 0 {
					continue
				}
				slices.SortFunc(arcs, func(a, b [2]int) int { return a[0]*m.n + a[1] - b[0]*m.n - b[1] })
				a := arcs[rng.Intn(len(arcs))]
				g.RemoveArc(a[0], a[1])
				if m.mult[a]--; m.mult[a] == 0 {
					delete(m.mult, a)
				}
			case r < 16:
				u := rng.Intn(m.n)
				g.IsolateVertex(u)
				m.isolate(u)
				if g.succ[u] != nil || g.pred[u] != nil {
					t.Fatalf("trial %d step %d: IsolateVertex(%d) kept its rows", trial, step, u)
				}
			case r < 18: // Compact away an isolated random subset
				remap := make([]int, m.n)
				kept := 0
				for u := range remap {
					if u < m.n-1 && rng.Intn(3) == 0 { // the last vertex always stays
						g.IsolateVertex(u)
						m.isolate(u)
						remap[u] = -1
					} else {
						remap[u] = kept
						kept++
					}
				}
				mult := make(map[[2]int]int, len(m.mult))
				for a, k := range m.mult {
					mult[[2]int{remap[a[0]], remap[a[1]]}] = k
				}
				g.Compact(remap, kept)
				m.n, m.mult = kept, mult
			default:
				k := m.n + 1 + rng.Intn(3)
				g.Grow(k)
				m.n = k
			}
			checkAgainstModel(t, step, g, m)
		}
	}
}

func TestSparseCompactPanics(t *testing.T) {
	for _, c := range []struct {
		remap []int
		m     int
		want  string
	}{
		{[]int{0, 1}, 2, "remap has 2 entries for 3 vertices"},
		{[]int{-1, 0, 1}, 2, "dropping vertex 0 with 1 arcs"},
		{[]int{0, 1, -1}, 2, "dropped vertex 2 still has an arc with 0"},
		{[]int{1, 0, 2}, 3, "remap moves vertex 1 to 0"},
	} {
		t.Run(c.want, func(t *testing.T) {
			g := NewSparse(3)
			g.AddArc(0, 2)
			g.AddArc(1, 2)
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("Compact(%v, %d) panicked with %q, want %q", c.remap, c.m, msg, c.want)
				}
			}()
			g.Compact(c.remap, c.m)
		})
	}
}
