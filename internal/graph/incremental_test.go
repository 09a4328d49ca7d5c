package graph

import (
	"errors"
	"math/rand"
	"testing"
)

func TestIncrementalBasicOrder(t *testing.T) {
	inc := NewIncremental(4)
	for _, a := range [][2]int{{3, 2}, {2, 1}, {1, 0}} {
		if err := inc.AddArc(a[0], a[1]); err != nil {
			t.Fatalf("AddArc(%v): %v", a, err)
		}
	}
	if err := inc.Verify(); err != nil {
		t.Fatal(err)
	}
	if !(inc.Order(3) < inc.Order(2) && inc.Order(2) < inc.Order(1) && inc.Order(1) < inc.Order(0)) {
		t.Fatalf("order does not respect chain: %v", inc.TopoOrder())
	}
}

func TestIncrementalRejectsCycle(t *testing.T) {
	inc := NewIncremental(3)
	mustAdd(t, inc, 0, 1)
	mustAdd(t, inc, 1, 2)
	if err := inc.AddArc(2, 0); !errors.Is(err, ErrCycle) {
		t.Fatalf("AddArc(2,0) = %v, want ErrCycle", err)
	}
	// The failed insertion must leave the structure unchanged.
	if inc.HasArc(2, 0) {
		t.Fatal("rejected arc was inserted")
	}
	if err := inc.Verify(); err != nil {
		t.Fatal(err)
	}
	if inc.ArcCount() != 2 {
		t.Fatalf("ArcCount = %d, want 2", inc.ArcCount())
	}
}

func TestIncrementalSelfLoopRejected(t *testing.T) {
	inc := NewIncremental(1)
	if err := inc.AddArc(0, 0); !errors.Is(err, ErrCycle) {
		t.Fatalf("self-loop: got %v, want ErrCycle", err)
	}
}

func TestIncrementalDuplicateArcMultiplicity(t *testing.T) {
	inc := NewIncremental(2)
	mustAdd(t, inc, 0, 1)
	mustAdd(t, inc, 0, 1)
	if inc.ArcCount() != 1 {
		t.Fatalf("ArcCount = %d, want 1 distinct", inc.ArcCount())
	}
	inc.RemoveArc(0, 1)
	if !inc.HasArc(0, 1) {
		t.Fatal("arc vanished while multiplicity remained")
	}
	inc.RemoveArc(0, 1)
	if inc.HasArc(0, 1) {
		t.Fatal("arc present after full removal")
	}
}

func TestIncrementalIsolateVertex(t *testing.T) {
	inc := NewIncremental(3)
	mustAdd(t, inc, 0, 1)
	mustAdd(t, inc, 1, 2)
	inc.IsolateVertex(1)
	if inc.ArcCount() != 0 {
		t.Fatalf("ArcCount = %d after isolate, want 0", inc.ArcCount())
	}
	// Previously cyclic insertion is now allowed.
	mustAdd(t, inc, 2, 0)
	mustAdd(t, inc, 0, 1)
	if err := inc.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalAddVertex(t *testing.T) {
	inc := NewIncremental(0)
	a := inc.AddVertex()
	b := inc.AddVertex()
	c := inc.AddVertex()
	mustAdd(t, inc, c, a)
	mustAdd(t, inc, a, b)
	if err := inc.Verify(); err != nil {
		t.Fatal(err)
	}
	if !(inc.Order(c) < inc.Order(a) && inc.Order(a) < inc.Order(b)) {
		t.Fatalf("order wrong after growth: %v", inc.TopoOrder())
	}
}

func TestIncrementalManyVerticesPastWordBoundary(t *testing.T) {
	inc := NewIncremental(0)
	const n = 200 // crosses several 64-bit mark words
	for i := 0; i < n; i++ {
		inc.AddVertex()
	}
	// Chain n-1 -> n-2 -> ... -> 0, all "backward" insertions that
	// force reordering.
	for i := n - 1; i > 0; i-- {
		mustAdd(t, inc, i, i-1)
	}
	if err := inc.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := inc.AddArc(0, n-1); !errors.Is(err, ErrCycle) {
		t.Fatalf("closing the chain: got %v, want ErrCycle", err)
	}
}

func TestIncrementalAgainstBatchRandom(t *testing.T) {
	// Property: for a random arc stream, Incremental accepts an arc iff
	// the batch graph of previously accepted arcs plus this arc is
	// acyclic; after every step the maintained order verifies.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(12)
		inc := NewIncremental(n)
		accepted := NewDense(n)
		for step := 0; step < 4*n; step++ {
			u, v := rng.Intn(n), rng.Intn(n)
			trial := NewDense(n)
			accepted.Arcs(func(a, b int) bool {
				trial.AddArc(a, b)
				return true
			})
			trial.AddArc(u, v)
			wantErr := trial.HasCycle()
			err := inc.AddArc(u, v)
			if (err != nil) != wantErr {
				t.Fatalf("n=%d step=%d arc %d->%d: incremental err=%v, batch cyclic=%v", n, step, u, v, err, wantErr)
			}
			if err == nil {
				accepted.AddArc(u, v)
			}
			if verr := inc.Verify(); verr != nil {
				t.Fatalf("invariants broken after %d->%d: %v", u, v, verr)
			}
		}
	}
}

func mustAdd(t *testing.T, inc *Incremental, u, v int) {
	t.Helper()
	if err := inc.AddArc(u, v); err != nil {
		t.Fatalf("AddArc(%d, %d): %v", u, v, err)
	}
}

func TestIncrementalFindPath(t *testing.T) {
	inc := NewIncremental(6)
	mustAdd(t, inc, 0, 1)
	mustAdd(t, inc, 1, 2)
	mustAdd(t, inc, 2, 3)
	mustAdd(t, inc, 0, 4) // side branch off the path
	mustAdd(t, inc, 5, 3) // joins the path's end from elsewhere

	path := inc.FindPath(0, 3)
	if len(path) < 2 || path[0] != 0 || path[len(path)-1] != 3 {
		t.Fatalf("FindPath(0, 3) = %v, want a 0..3 path", path)
	}
	for i := 0; i+1 < len(path); i++ {
		if !inc.HasArc(path[i], path[i+1]) {
			t.Fatalf("FindPath(0, 3) = %v: no arc %d->%d", path, path[i], path[i+1])
		}
	}
	if got := inc.FindPath(3, 0); got != nil {
		t.Fatalf("FindPath(3, 0) = %v, want nil (no backward path)", got)
	}
	if got := inc.FindPath(4, 3); got != nil {
		t.Fatalf("FindPath(4, 3) = %v, want nil (disconnected)", got)
	}
	if got := inc.FindPath(2, 2); len(got) != 1 || got[0] != 2 {
		t.Fatalf("FindPath(2, 2) = %v, want [2]", got)
	}

	// The cycle-witness use: a refused AddArc(u, v) means FindPath(v, u)
	// plus the refused arc is a concrete cycle.
	if err := inc.AddArc(3, 0); !errors.Is(err, ErrCycle) {
		t.Fatalf("AddArc(3, 0) = %v, want ErrCycle", err)
	}
	if path := inc.FindPath(0, 3); path == nil {
		t.Fatal("cycle witness path missing after refused arc")
	}
}
