package core_test

// Exactness of the clock scan: the transitive depends-on relation is
// answered from per-transaction clocks, never from a bitset DP. These
// tests hold it to the closure of the direct relation and the tested
// graph to the staircase scan over that closure's rows.

import (
	"fmt"
	"math/big"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"relser/internal/core"
	"relser/internal/enumerate"
	"relser/internal/graph"
	"relser/internal/paperfig"
)

// closureRows returns depends-on as one bitset of schedule positions
// per position: the transitive closure of ComputeDirectDepends.
func closureRows(s *core.Schedule) []graph.Bitset {
	direct := core.ComputeDirectDepends(s)
	g := graph.NewDense(s.Len())
	for p := 0; p < s.Len(); p++ {
		direct.Predecessors(p).ForEach(func(q int) bool {
			g.AddArc(p, q)
			return true
		})
	}
	tc := g.TransitiveClosure()
	rows := make([]graph.Bitset, s.Len())
	for p := range rows {
		rows[p] = graph.NewBitset(s.Len())
		for q := 0; q < p; q++ {
			if tc.HasArc(p, q) {
				rows[p].Set(q)
			}
		}
	}
	return rows
}

// bitsetScanArcs is the staircase scan as it ran over materialized
// depends-on rows: the I-arcs, and for each position v and transaction
// Ti ≠ Tk (v ∈ Tk) whose latest operation depended on by Tk so far
// advanced at v, the F-arc PushForward(u, Tk) -> v and the B-arc
// u -> PullBackward(v, Ti) of that latest u.
func bitsetScanArcs(s *core.Schedule, sp *core.Spec, rows []graph.Bitset) *graph.Dense {
	ts := s.Set()
	g := graph.NewDense(ts.NumOps())
	for i := 1; i < ts.NumOps(); i++ {
		if ts.OpAt(i).Seq > 0 {
			g.AddArc(i-1, i)
		}
	}
	latest := map[[2]core.TxnID]int{} // (Tk, Ti) -> 1 + global index
	for pos := 0; pos < s.Len(); pos++ {
		v, gv := s.At(pos), s.GlobalAt(pos)
		var advanced []core.TxnID
		rows[pos].ForEach(func(q int) bool {
			u, gu := s.At(q), s.GlobalAt(q)
			key := [2]core.TxnID{v.Txn, u.Txn}
			if u.Txn != v.Txn && gu >= latest[key] {
				latest[key] = gu + 1
				if !slices.Contains(advanced, u.Txn) {
					advanced = append(advanced, u.Txn)
				}
			}
			return true
		})
		for _, i := range advanced {
			u := ts.OpAt(latest[[2]core.TxnID{v.Txn, i}] - 1)
			g.AddArc(ts.GlobalIndexOf(sp.PushForward(u, v.Txn)), gv)
			g.AddArc(ts.GlobalIndexOf(u), ts.GlobalIndexOf(sp.PullBackward(v, i)))
		}
	}
	return g
}

// definition3Count counts Definition 3's distinct arcs over the given
// depends-on rows.
func definition3Count(s *core.Schedule, sp *core.Spec, rows []graph.Bitset) int {
	ts := s.Set()
	g := graph.NewDense(ts.NumOps())
	for i := 1; i < ts.NumOps(); i++ {
		if ts.OpAt(i).Seq > 0 {
			g.AddArc(i-1, i)
		}
	}
	for pos := 0; pos < s.Len(); pos++ {
		v, gv := s.At(pos), s.GlobalAt(pos)
		rows[pos].ForEach(func(q int) bool {
			if u, gu := s.At(q), s.GlobalAt(q); u.Txn != v.Txn {
				g.AddArc(gu, gv)
				g.AddArc(ts.GlobalIndexOf(sp.PushForward(u, v.Txn)), gv)
				g.AddArc(gu, ts.GlobalIndexOf(sp.PullBackward(v, u.Txn)))
			}
			return true
		})
	}
	return g.ArcCount()
}

func arcList(g *graph.Dense) [][2]int {
	var out [][2]int
	g.Arcs(func(u, v int) bool {
		out = append(out, [2]int{u, v})
		return true
	})
	return out
}

// checkClocksExact compares, on one instance, the clock relation and
// the graph built from it with the closure of the direct relation and
// the bitset staircase scan over it.
func checkClocksExact(t testing.TB, label string, s *core.Schedule, sp *core.Spec) {
	t.Helper()
	rows := closureRows(s)
	dep := core.ComputeDepends(s)
	rsg := core.BuildRSGUnder(s, sp, dep) // before any row is built
	for p := range rows {
		if got := dep.Predecessors(p); !slices.Equal(got, rows[p]) {
			t.Fatalf("%s: %v depends on positions %v, the closure of the direct relation gives %v\nschedule %s",
				label, s.At(p), got, rows[p], s)
		}
		for q := range rows {
			if got := dep.DependsOnPos(p, q); got != rows[p].Has(q) {
				t.Fatalf("%s: DependsOnPos(%d, %d) = %v, closure %v", label, p, q, got, !got)
			}
		}
	}
	ref := bitsetScanArcs(s, sp, rows)
	if got, want := arcList(rsg.TestedGraph()), arcList(ref); !slices.Equal(got, want) {
		t.Fatalf("%s: tested arcs %v, the bitset scan gives %v\nschedule %s\nspec %s", label, got, want, s, sp)
	}
	ts := s.Set()
	if got, want := rsg.Acyclic(), !ref.HasCycle(); got != want {
		t.Fatalf("%s: Acyclic %v, bitset scan %v", label, got, want)
	}
	var wantCycle []core.Op
	for _, g := range ref.FindCycle() {
		wantCycle = append(wantCycle, ts.OpAt(g))
	}
	if got := rsg.Cycle(); !slices.Equal(got, wantCycle) {
		t.Fatalf("%s: Cycle %v, bitset scan %v", label, got, wantCycle)
	}
	want := "cyclic"
	rank := make([]int, ts.NumOps())
	for g := range rank {
		rank[g] = s.PosOfGlobal(g)
	}
	if order, ok := ref.TopoOrderPreferring(rank); ok {
		ops := make([]core.Op, len(order))
		for i, g := range order {
			ops[i] = ts.OpAt(g)
		}
		want = core.MustSchedule(ts, ops).String()
	}
	if got := witnessString(rsg); got != want {
		t.Fatalf("%s: Witness %q, bitset scan %q", label, got, want)
	}
	if got, want := rsg.NumArcs(), definition3Count(s, sp, rows); got != want {
		t.Fatalf("%s: NumArcs %d, Definition 3 over the closure %d", label, got, want)
	}
}

// TestClocksMatchClosure runs checkClocksExact over every schedule of
// each corpus and paper-figure set small enough to enumerate, over
// random instances of the shape the sched package's equivalence tests
// draw (2-4 transactions of 1-4 operations over x, y, z, each cut with
// probability 1/3), and over the ladder's certify-offline shape.
func TestClocksMatchClosure(t *testing.T) {
	const maxSchedules = 5000
	exhaustive := 0
	type set struct {
		name string
		inst *core.Instance
	}
	var sets []set
	for _, file := range corpusFiles(t) {
		sets = append(sets, set{filepath.Base(file), parseInstanceFile(t, file)})
	}
	for _, named := range paperfig.All() {
		sets = append(sets, set{named.Name, named.Instance})
	}
	for _, set := range sets {
		name, inst := set.name, set.inst
		if enumerate.Count(inst.Set).Cmp(big.NewInt(maxSchedules)) > 0 {
			continue
		}
		k := 0
		enumerate.Schedules(inst.Set, func(s *core.Schedule) bool {
			checkClocksExact(t, fmt.Sprintf("%s schedule %d", name, k), s, inst.Spec)
			k++
			return !t.Failed()
		})
		exhaustive += k
	}
	if exhaustive < 10000 {
		t.Errorf("enumerated only %d schedules", exhaustive)
	}
	for seed := int64(1); seed <= 2000; seed++ {
		_, sp, s := genInstanceSized(seed, 4, 4, 3)
		checkClocksExact(t, fmt.Sprintf("genInstanceSized(%d)", seed), s, sp)
	}
	for seed := int64(1); seed <= 5; seed++ {
		s, sp := certifyInstance(48, seed)
		checkClocksExact(t, fmt.Sprintf("certifyInstance(48, %d)", seed), s, sp)
	}
	// Two-operation programs: clock rows are recycled at nearly every
	// step.
	for seed := int64(1); seed <= 3; seed++ {
		s, sp := chainInstance(300, seed)
		checkClocksExact(t, fmt.Sprintf("chainInstance(300, %d)", seed), s, sp)
	}
	t.Logf("%d enumerated schedules", exhaustive)
}

// TestDependsRowsConcurrentFirstUse: the rows are built from the clocks
// on first use, so concurrent first queries of one relation must all
// see the finished rows (run under -race).
func TestDependsRowsConcurrentFirstUse(t *testing.T) {
	s, _ := certifyInstance(8, 1)
	want := closureRows(s)
	dep := core.ComputeDepends(s)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := len(want) - 1; p >= 0; p-- {
				if got := dep.Predecessors(p); !slices.Equal(got, want[p]) {
					t.Errorf("position %d depends on %v, closure %v", p, got, want[p])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBuildRSGRejectsOtherSet: the graph addresses the specification
// by the schedule's transaction positions, so a specification over any
// other set (here a superset, where the positions shift) must be
// refused, not read at the wrong pairs.
func TestBuildRSGRejectsOtherSet(t *testing.T) {
	t1 := core.T(1, core.R("x"), core.W("y"))
	t3 := core.T(3, core.R("y"), core.W("x"))
	s := core.MustSchedule(core.MustTxnSet(t1, t3), []core.Op{t1.Op(0), t3.Op(0), t1.Op(1), t3.Op(1)})
	for name, ts := range map[string]*core.TxnSet{
		"superset": core.MustTxnSet(t1, core.T(2, core.R("z")), t3),
		"other":    core.MustTxnSet(t1, core.T(3, core.R("y"))),
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "different transaction set") {
					t.Errorf("%s: BuildRSG accepted a specification over another set (panic: %v)", name, r)
				}
			}()
			core.BuildRSG(s, core.NewSpec(ts))
		}()
	}
	// An equal set built separately is the same set.
	core.BuildRSG(s, core.NewSpec(core.MustTxnSet(t3, t1)))
}
