package graph

import (
	"math/rand"
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
	succ := g.Successors(2)
	want := []int{0, 3, 4}
	if len(succ) != len(want) {
		t.Fatalf("Successors = %v, want %v", succ, want)
	}
	for i := range want {
		if succ[i] != want[i] {
			t.Fatalf("Successors = %v, want %v", succ, want)
		}
	}
	pred := g.Predecessors(2)
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
	if g.HasCycle() {
		t.Fatal("path reported cyclic")
	}
	g.AddArc(3, 1)
	if !g.HasCycle() {
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

func TestSparseReachableFrom(t *testing.T) {
	g := NewSparse(5)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	g.AddArc(3, 4)
	if !g.ReachableFrom(0, 2) {
		t.Error("2 should be reachable from 0")
	}
	if g.ReachableFrom(0, 4) {
		t.Error("4 should not be reachable from 0")
	}
	if g.ReachableFrom(0, 0) {
		t.Error("0 is not on a cycle; should not be self-reachable")
	}
	g.AddArc(2, 0)
	if !g.ReachableFrom(0, 0) {
		t.Error("0 lies on a cycle; should be self-reachable")
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
		if s.HasCycle() != d.HasCycle() {
			t.Fatalf("trial %d: sparse=%v dense=%v disagree", trial, s.HasCycle(), d.HasCycle())
		}
	}
}
