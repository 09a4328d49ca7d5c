package core_test

// The tested graph is an arc list: Acyclic runs Kahn's algorithm over
// it with the I-arcs implicit, and Cycle, Witness and TestedArcs run on
// a graph.Dense built from it on first use. These tests hold the list
// to the graph.Dense the builder filled before it.

import (
	"fmt"
	"math/big"
	"path/filepath"
	"slices"
	"testing"

	"relser/internal/core"
	"relser/internal/enumerate"
	"relser/internal/graph"
	"relser/internal/paperfig"
)

// checkArcList compares, on one instance, Acyclic with a graph.Dense of
// the same arcs plus the I-arcs, and TestedArcs, Cycle and Witness with
// core.DenseTestedGraph. It reports whether the instance was cyclic.
func checkArcList(t testing.TB, label string, s *core.Schedule, sp *core.Spec, dep *core.Depends) (cyclic bool) {
	t.Helper()
	rsg := core.BuildRSGUnder(s, sp, dep)
	acyclic := rsg.Acyclic()
	if rsg.DenseBuilt() {
		t.Fatalf("%s: Acyclic built the graph.Dense", label)
	}
	ts := s.Set()
	same := graph.NewDense(ts.NumOps())
	for g := 1; g < ts.NumOps(); g++ {
		if ts.OpAt(g).Seq > 0 {
			same.AddArc(g-1, g)
		}
	}
	rsg.ListedArcs(func(u, v int) { same.AddArc(u, v) })
	if acyclic == same.HasCycle() {
		t.Fatalf("%s: Acyclic %v on the arc list, the same arcs in a graph.Dense cyclic %v\nschedule %s\nspec %s",
			label, acyclic, same.HasCycle(), s, sp)
	}
	ref := core.DenseTestedGraph(s, sp, dep)
	if got, want := rsg.TestedArcs(), ref.ArcCount(); got != want {
		t.Fatalf("%s: TestedArcs %d, the graph.Dense builder %d", label, got, want)
	}
	var wantCycle []core.Op
	for _, g := range ref.FindCycle() {
		wantCycle = append(wantCycle, ts.OpAt(g))
	}
	if got := rsg.Cycle(); !slices.Equal(got, wantCycle) {
		t.Fatalf("%s: Cycle %v, the graph.Dense builder %v", label, got, wantCycle)
	}
	if got, want := witnessString(rsg), definition3Witness(rsg, ref); got != want {
		t.Fatalf("%s: Witness %q, the graph.Dense builder %q", label, got, want)
	}
	return !acyclic
}

// TestArcListMatchesDense runs checkArcList, under transitive and under
// direct depends-on (Figure 2's ablation), over every schedule of each
// corpus and paper-figure set small enough to enumerate, over random
// instances of the shape the sched package's equivalence tests draw,
// and over the ladder's certify-offline and chain-soak shapes.
func TestArcListMatchesDense(t *testing.T) {
	const maxSchedules = 5000
	var checked, cyclic [2]int // by direct
	check := func(label string, s *core.Schedule, sp *core.Spec) {
		for k, dep := range []*core.Depends{core.ComputeDepends(s), core.ComputeDirectDepends(s)} {
			checked[k]++
			if checkArcList(t, fmt.Sprintf("%s direct=%v", label, dep.IsDirect()), s, sp, dep) {
				cyclic[k]++
			}
		}
	}
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
		if enumerate.Count(set.inst.Set).Cmp(big.NewInt(maxSchedules)) > 0 {
			continue
		}
		k := 0
		enumerate.Schedules(set.inst.Set, func(s *core.Schedule) bool {
			check(fmt.Sprintf("%s schedule %d", set.name, k), s, set.inst.Spec)
			k++
			return !t.Failed()
		})
	}
	for seed := int64(1); seed <= 2000; seed++ {
		_, sp, s := genInstanceSized(seed, 4, 4, 3)
		check(fmt.Sprintf("genInstanceSized(%d)", seed), s, sp)
	}
	for seed := int64(1); seed <= 5; seed++ {
		s, sp := certifyInstance(48, seed)
		check(fmt.Sprintf("certifyInstance(48, %d)", seed), s, sp)
	}
	for seed := int64(1); seed <= 3; seed++ {
		s, sp := chainInstance(300, seed)
		check(fmt.Sprintf("chainInstance(300, %d)", seed), s, sp)
	}
	t.Logf("%d instances: %d cyclic under transitive depends-on, %d under direct", checked[0], cyclic[0], cyclic[1])
	for k, c := range cyclic {
		if c == 0 || c == checked[k] {
			t.Errorf("direct=%v: %d of %d instances cyclic; want both verdicts", k == 1, c, checked[k])
		}
	}
}
