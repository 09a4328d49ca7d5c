package graph

import (
	"errors"
	"math/rand"
	"testing"
)

// chain builds 0 -> 1 -> ... -> n-1.
func chain(t testing.TB, n int) *Incremental {
	inc := NewIncremental(n)
	for v := 0; v+1 < n; v++ {
		if err := inc.AddArc(v, v+1); err != nil {
			t.Fatalf("AddArc(%d, %d): %v", v, v+1, err)
		}
	}
	return inc
}

func TestRetireCompactsAndKeepsHandlesStable(t *testing.T) {
	inc := chain(t, 10)
	// Retire the committed stable prefix 0..5 (isolating is Retire's
	// job; the arcs into 6 go with it).
	res := inc.Retire([]int{0, 1, 2, 3, 4, 5})
	if res.Retired != 6 || res.Live != 4 {
		t.Fatalf("RetireResult = %+v, want Retired=6 Live=4", res)
	}
	if inc.RetiredCount() != 6 {
		t.Fatalf("RetiredCount = %d, want 6", inc.RetiredCount())
	}
	if inc.Len() != 4 {
		t.Fatalf("Len = %d, want 4", inc.Len())
	}
	// Surviving external IDs are stable handles.
	for v := 6; v < 9; v++ {
		if !inc.HasArc(v, v+1) {
			t.Fatalf("arc %d -> %d lost across retirement", v, v+1)
		}
	}
	for v := 0; v < 6; v++ {
		if !inc.Retired(v) {
			t.Fatalf("vertex %d not reported retired", v)
		}
	}
	if inc.Retired(7) {
		t.Fatal("live vertex 7 reported retired")
	}
	// New vertices keep getting fresh IDs after the compaction.
	nv := inc.AddVertex()
	if nv != 10 {
		t.Fatalf("AddVertex after retire = %d, want 10", nv)
	}
	if err := inc.AddArc(9, nv); err != nil {
		t.Fatalf("AddArc(9, %d): %v", nv, err)
	}
	if err := inc.AddArc(nv, 6); err == nil {
		t.Fatal("cycle 6..9 -> 10 -> 6 not rejected after retirement")
	}
	if err := inc.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRetireIsIdempotentAndOrderValid(t *testing.T) {
	inc := chain(t, 8)
	inc.Retire([]int{0, 1, 2})
	res := inc.Retire([]int{0, 1, 2, 3})
	if res.Retired != 1 {
		t.Fatalf("second Retire removed %d, want 1 (0..2 already retired)", res.Retired)
	}
	if got := inc.TopoOrder(); len(got) != 4 {
		t.Fatalf("TopoOrder = %v, want the 4 survivors", got)
	}
	for i, v := range inc.TopoOrder() {
		if v != 4+i {
			t.Fatalf("TopoOrder[%d] = %d, want %d", i, v, 4+i)
		}
	}
	if err := inc.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Regression for the AddVertex bitset growth bug: the old code grew
// mark by at most one word per AddVertex, which under-allocates when a
// retirement-compaction remap leaves the bitset more than one word
// short of the next internal index. Simulate that post-remap state
// directly and check AddVertex restores the exact required length.
func TestAddVertexBitsetGrowthRegression(t *testing.T) {
	inc := chain(t, 200)
	inc.mark = inc.mark[:1] // compaction remap left mark under-allocated
	v := inc.AddVertex()
	if want := 200; v != want {
		t.Fatalf("AddVertex = %d, want %d", v, want)
	}
	if got := len(inc.mark) * wordBits; got < inc.Len() {
		t.Fatalf("mark covers %d vertices, need %d", got, inc.Len())
	}
	if err := inc.AddArc(199, v); err != nil {
		t.Fatalf("AddArc(199, %d): %v", v, err)
	}
	// The under-allocated bitset made this panic (index out of range in
	// mark.Set during the cycle search).
	if err := inc.AddArc(v, 0); !errors.Is(err, ErrCycle) {
		t.Fatalf("0..199 -> 200 -> 0 must cycle, got %v", err)
	}
}

// Growth across a real retirement compaction: mark is rebuilt to the
// live count, and subsequent AddVertex calls must track the exact
// word boundary.
func TestAddVertexBitsetGrowthAfterRetire(t *testing.T) {
	inc := chain(t, 130)
	ids := make([]int, 0, 128)
	for v := 0; v < 128; v++ {
		ids = append(ids, v)
	}
	inc.Retire(ids)
	for i := 0; i < 200; i++ {
		nv := inc.AddVertex()
		if err := inc.AddArc(129, nv); err != nil {
			t.Fatalf("AddArc(129, %d): %v", nv, err)
		}
	}
	if err := inc.AddArc(128, 329); err != nil {
		t.Fatalf("forward arc cannot cycle: %v", err)
	}
	if err := inc.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFindPathRetiredEndpoints(t *testing.T) {
	inc := chain(t, 6)
	if got := inc.FindPath(1, 4); len(got) != 4 {
		t.Fatalf("FindPath(1, 4) = %v before retirement", got)
	}
	inc.Retire([]int{0, 1, 2})
	// Retired endpoints: nil, not a panic on a remapped ID.
	if got := inc.FindPath(1, 4); got != nil {
		t.Fatalf("FindPath(1, 4) = %v, want nil (1 is retired)", got)
	}
	if got := inc.FindPath(4, 2); got != nil {
		t.Fatalf("FindPath(4, 2) = %v, want nil (2 is retired)", got)
	}
	if got := inc.FindPath(2, 2); got != nil {
		t.Fatalf("FindPath(2, 2) = %v, want nil (2 is retired)", got)
	}
	if got := inc.FindPath(3, 5); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("FindPath(3, 5) = %v, want [3 4 5]", got)
	}
}

func TestRetiredVertexQueriesAreEmpty(t *testing.T) {
	inc := chain(t, 5)
	inc.Retire([]int{1, 2})
	if inc.HasArc(1, 2) || inc.HasArc(0, 1) {
		t.Fatal("retired vertices report arcs")
	}
	if inc.Successors(1) != nil || inc.Predecessors(2) != nil {
		t.Fatal("retired vertices report adjacency")
	}
	if inc.InDegree(1) != 0 || inc.OutDegree(2) != 0 {
		t.Fatal("retired vertices report degrees")
	}
	if inc.Order(1) != -1 {
		t.Fatalf("Order(retired) = %d, want -1", inc.Order(1))
	}
	inc.IsolateVertex(1) // no-op, must not panic
}

func TestAppendArcsSettleMatchesAddArcBatch(t *testing.T) {
	// The same acyclic arc set inserted via the fast path (AppendArcs +
	// Settle) and via AddArcBatch must yield identical orders and
	// arc sets.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 30
		arcs := randomDAGArcs(rng, n, 0.15)
		perm := rng.Perm(n) // hide the topological numbering
		relabel := func(a [][2]int) [][2]int {
			out := make([][2]int, len(a))
			for i, arc := range a {
				out[i] = [2]int{perm[arc[0]], perm[arc[1]]}
			}
			return out
		}
		arcs = relabel(arcs)
		fast := NewIncremental(n)
		slow := NewIncremental(n)
		for i := 0; i < len(arcs); i += 3 {
			end := i + 3
			if end > len(arcs) {
				end = len(arcs)
			}
			fast.AppendArcs(arcs[i:end])
			if err := slow.AddArcBatch(arcs[i:end]); err != nil {
				t.Fatalf("trial %d: AddArcBatch rejected acyclic arcs: %v", trial, err)
			}
		}
		if err := fast.Settle(); err != nil {
			t.Fatalf("trial %d: Settle: %v", trial, err)
		}
		if err := fast.Verify(); err != nil {
			t.Fatalf("trial %d: fast Verify: %v", trial, err)
		}
		if fast.ArcCount() != slow.ArcCount() {
			t.Fatalf("trial %d: arc counts diverged: %d vs %d", trial, fast.ArcCount(), slow.ArcCount())
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if fast.HasArc(u, v) != slow.HasArc(u, v) {
					t.Fatalf("trial %d: arc (%d,%d) presence diverged", trial, u, v)
				}
			}
		}
	}
}

func TestSettleDetectsContractViolation(t *testing.T) {
	inc := chain(t, 3)
	inc.AppendArcs([][2]int{{2, 0}}) // closes 0->1->2->0: contract violation
	if err := inc.Settle(); err == nil {
		t.Fatal("Settle accepted a cyclic appended batch")
	}
}

// TestRetireInterleavedRandom drives random interleavings of vertex
// growth, checked batch inserts, fast-path appends and retirement
// epochs, verifying structural invariants after every epoch. This is
// the seeded core of the retirement fuzz; FuzzRetireInterleaving feeds
// it mutated seeds.
func TestRetireInterleavedRandom(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		runRetireInterleaving(t, seed, 400)
	}
}

func runRetireInterleaving(t testing.TB, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	inc := NewIncremental(0)
	var live []int // external IDs not yet retired
	addVertex := func() {
		live = append(live, inc.AddVertex())
	}
	for i := 0; i < 4; i++ {
		addVertex()
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			addVertex()
		case op < 6: // checked batch insert
			var arcs [][2]int
			for k := 0; k < 1+rng.Intn(3); k++ {
				u := live[rng.Intn(len(live))]
				v := live[rng.Intn(len(live))]
				if u != v {
					arcs = append(arcs, [2]int{u, v})
				}
			}
			_ = inc.AddArcBatch(arcs) // ErrCycle is a legal outcome
		case op < 8: // fast-path append of provably forward arcs
			if len(live) >= 2 {
				i1, i2 := rng.Intn(len(live)), rng.Intn(len(live))
				u, v := live[i1], live[i2]
				if u != v && inc.Order(u) < inc.Order(v) {
					inc.AppendArcs([][2]int{{u, v}})
				}
			}
		default: // retirement epoch racing the inserts
			if len(live) > 2 {
				k := 1 + rng.Intn(len(live)-2)
				rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				inc.Retire(live[:k])
				live = append([]int(nil), live[k:]...)
				if err := inc.Verify(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
	}
	if err := inc.Verify(); err != nil {
		t.Fatalf("seed %d final: %v", seed, err)
	}
}

func FuzzRetireInterleaving(f *testing.F) {
	f.Add(int64(1), 100)
	f.Add(int64(42), 300)
	f.Fuzz(func(t *testing.T, seed int64, steps int) {
		if steps < 0 || steps > 2000 {
			t.Skip()
		}
		runRetireInterleaving(t, seed, steps)
	})
}
