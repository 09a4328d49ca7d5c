package core_test

// The proof obligation of the dominance-reduced test graph (THEORY §4):
// it must agree with Definition 3's graph on reachability — hence on
// acyclicity, cycles and witnesses — under any depends-on relation,
// while RSG.Arcs/ArcKinds keep describing Definition 3's graph arc by
// arc.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"relser/internal/core"
	"relser/internal/graph"
	"relser/internal/paperfig"
)

// definition3Graph rebuilds Definition 3's graph from RSG.Arcs.
func definition3Graph(rsg *core.RSG) *graph.Dense {
	ts := rsg.Schedule().Set()
	g := graph.NewDense(ts.NumOps())
	rsg.Arcs(func(u, v core.Op, _ core.ArcKind) bool {
		g.AddArc(ts.GlobalIndexOf(u), ts.GlobalIndexOf(v))
		return true
	})
	return g
}

// definition3Witness is the parent implementation of Witness: the
// schedule-order-preferring topological sort of Definition 3's graph.
func definition3Witness(rsg *core.RSG, def3 *graph.Dense) string {
	s := rsg.Schedule()
	ts := s.Set()
	rank := make([]int, ts.NumOps())
	for g := range rank {
		rank[g] = s.PosOfGlobal(g)
	}
	order, ok := def3.TopoOrderPreferring(rank)
	if !ok {
		return "cyclic"
	}
	ops := make([]core.Op, len(order))
	for i, g := range order {
		ops[i] = ts.OpAt(g)
	}
	return core.MustSchedule(ts, ops).String()
}

// closure returns the reachability matrix of g, a graph over n
// vertices, by Warshall over bitset rows: an oracle independent of
// Dense.TransitiveClosure, and cheap on the cyclic third of the
// instances, where that falls back to one search per vertex.
func closure(g *graph.Dense, n int) []graph.Bitset {
	rows := make([]graph.Bitset, n)
	for u := range rows {
		rows[u] = graph.NewBitset(n)
	}
	g.Arcs(func(u, v int) bool {
		rows[u].Set(v)
		return true
	})
	for k := range rows {
		for u := range rows {
			if rows[u].Has(k) {
				rows[u].UnionWith(rows[k])
			}
		}
	}
	return rows
}

func witnessString(rsg *core.RSG) string {
	w, err := rsg.Witness()
	if err != nil {
		return "cyclic"
	}
	return w.String()
}

// checkCertGraph compares the tested graph of rsg with Definition 3's
// and reports whether the instance was cyclic.
func checkCertGraph(t testing.TB, label string, rsg *core.RSG) (cyclic bool) {
	t.Helper()
	tested, def3 := rsg.TestedGraph(), definition3Graph(rsg)
	if tested.ArcCount() != rsg.TestedArcs() || tested.ArcCount() > rsg.NumArcs() {
		t.Fatalf("%s: tested graph has %d arcs, TestedArcs %d, Definition 3 %d", label, tested.ArcCount(), rsg.TestedArcs(), rsg.NumArcs())
	}
	n := rsg.NumVertices()
	reach, want := closure(tested, n), closure(def3, n)
	for u := range reach {
		if !slices.Equal(reach[u], want[u]) {
			t.Fatalf("%s: reachability from %v differs: tested %v, Definition 3 %v\nschedule %s\nspec %s",
				label, rsg.Schedule().Set().OpAt(u), reach[u], want[u], rsg.Schedule(), rsg.Spec())
		}
	}
	if got, want := witnessString(rsg), definition3Witness(rsg, def3); got != want {
		t.Fatalf("%s: witness %q, Definition 3's graph gives %q", label, got, want)
	}
	cyc, acyclic := rsg.Cycle(), rsg.Acyclic()
	if (cyc == nil) != acyclic || acyclic == def3.HasCycle() {
		t.Fatalf("%s: Acyclic %v, Cycle %v, Definition 3 cyclic %v", label, acyclic, cyc, def3.HasCycle())
	}
	for i := range cyc {
		if u, v := cyc[i], cyc[(i+1)%len(cyc)]; !rsg.HasArc(u, v) {
			t.Fatalf("%s: cycle step %v -> %v is not an arc of Definition 3", label, u, v)
		}
	}
	return cyc != nil
}

// TestPropertyIFBSameReachability: on 50 000 random instances, under
// transitive and under direct depends-on, the I + staircase-F/B graph
// has exactly the reachability of Definition 3's graph, the same
// witness, and only cycles made of Definition 3 arcs.
func TestPropertyIFBSameReachability(t *testing.T) {
	const instances = 50000
	cyclic := [2]int{}
	for seed := int64(1); seed <= instances; seed++ {
		var sp *core.Spec
		var s *core.Schedule
		if seed%2 == 0 {
			_, sp, s = genInstance(seed)
		} else {
			_, sp, s = genInstanceSized(seed, 6, 6, 6)
		}
		for k, dep := range []*core.Depends{core.ComputeDepends(s), core.ComputeDirectDepends(s)} {
			label := fmt.Sprintf("seed %d direct=%v", seed, dep.IsDirect())
			if checkCertGraph(t, label, core.BuildRSGUnder(s, sp, dep)) {
				cyclic[k]++
			}
		}
	}
	t.Logf("%d instances: %d cyclic under transitive depends-on, %d under direct", instances, cyclic[0], cyclic[1])
	for _, c := range cyclic {
		if c*10 <= instances {
			t.Errorf("only %d of %d instances cyclic; the generator no longer exercises cycles", c, instances)
		}
	}
}

// TestWitnessMatchesParent pins Witness on the instance corpus and on
// Figures 1-4 to the output of the Definition 3 builder this one
// replaced.
func TestWitnessMatchesParent(t *testing.T) {
	want := map[string]string{
		"fig1.txt/Sra":          "r2[y] r1[x] w1[x] w2[y] r2[x] w1[z] w3[x] w3[y] r1[y] w3[z]",
		"fig1.txt/Srs":          "r1[x] r2[y] w1[x] w2[y] w3[x] w1[z] w3[y] r2[x] r1[y] w3[z]",
		"fig1.txt/S2":           "r1[x] r2[y] w1[x] w2[y] w3[x] w1[z] w3[y] r2[x] r1[y] w3[z]",
		"crossing_audits.txt/W": "r1[f1] r2[f2] r3[f1] w3[f1] r4[f2] w4[f2] r2[f1] r1[f2]",
		"lostupdate.txt/LU":     "r2[x] r1[x] w1[x] w2[x]",
		"chopped.txt/P":         "r1[x] w1[x] r2[x] w2[x] r1[y] w1[y] r3[y] w3[y]",
		"fig1/Sra":              "r2[y] r1[x] w1[x] w2[y] r2[x] w1[z] w3[x] w3[y] r1[y] w3[z]",
		"fig1/Srs":              "r1[x] r2[y] w1[x] w2[y] w3[x] w1[z] w3[y] r2[x] r1[y] w3[z]",
		"fig1/S2":               "r1[x] r2[y] w1[x] w2[y] w3[x] w1[z] w3[y] r2[x] r1[y] w3[z]",
		"fig2/S1":               "w2[y] w1[x] r3[y] w3[z] r1[z]",
		"fig3/S2":               "w1[x] r1[z] r2[x] w2[y] r3[z] r3[y]",
		"fig4/S":                "w4[x] w3[t] w4[t] w1[x] w1[y] w2[z] w2[y] w3[z]",
	}
	seen := 0
	check := func(label string, inst *core.Instance) {
		for _, name := range inst.Names {
			rsg := core.BuildRSG(inst.Schedules[name], inst.Spec)
			checkCertGraph(t, label+"/"+name, rsg)
			if got := witnessString(rsg); got != want[label+"/"+name] {
				t.Errorf("%s/%s: witness %q, parent gave %q", label, name, got, want[label+"/"+name])
			}
			seen++
		}
	}
	for _, file := range corpusFiles(t) {
		check(filepath.Base(file), parseInstanceFile(t, file))
	}
	for _, named := range paperfig.All() {
		check(named.Name, named.Instance)
	}
	if seen != len(want) {
		t.Errorf("checked %d schedules, pinned %d", seen, len(want))
	}
}

func corpusFiles(t testing.TB) []string {
	files, err := filepath.Glob(filepath.Join("testdata", "instances", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no instance corpus: %v", err)
	}
	return files
}

func parseInstanceFile(t testing.TB, file string) *core.Instance {
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inst, err := core.ParseInstance(f)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestArcKindsMatchDefinition3 pins the derived labels, for every
// ordered vertex pair, to kinds accumulated by a literal Definition 3
// loop: I between consecutive operations of a transaction, and for
// each pair u ∈ Ti, v ∈ Tk (i ≠ k) with v depending on u the D-arc
// u -> v, the F-arc PushForward(u, Tk) -> v and the B-arc
// u -> PullBackward(v, Ti).
func TestArcKindsMatchDefinition3(t *testing.T) {
	fig3 := paperfig.Figure3()
	_, sp7, s7 := genInstance(7)
	_, sp42, s42 := genInstanceSized(42, 6, 6, 6)
	for _, tc := range []struct {
		name string
		s    *core.Schedule
		sp   *core.Spec
	}{
		{"fig3", fig3.Schedules["S2"], fig3.Spec},
		{"genInstance(7)", s7, sp7},
		{"genInstanceSized(42)", s42, sp42},
	} {
		for _, dep := range []*core.Depends{core.ComputeDepends(tc.s), core.ComputeDirectDepends(tc.s)} {
			ops := tc.s.Ops()
			want := make(map[[2]core.Op]core.ArcKind)
			for _, u := range ops {
				for _, v := range ops {
					switch {
					case u.Txn == v.Txn && v.Seq == u.Seq+1:
						want[[2]core.Op{u, v}] |= core.IArc
					case u.Txn != v.Txn && dep.DependsOn(v, u):
						want[[2]core.Op{u, v}] |= core.DArc
						want[[2]core.Op{tc.sp.PushForward(u, v.Txn), v}] |= core.FArc
						want[[2]core.Op{u, tc.sp.PullBackward(v, u.Txn)}] |= core.BArc
					}
				}
			}
			rsg := core.BuildRSGUnder(tc.s, tc.sp, dep)
			for _, u := range ops {
				for _, v := range ops {
					if got := rsg.ArcKinds(u, v); got != want[[2]core.Op{u, v}] {
						t.Errorf("%s direct=%v: ArcKinds(%v, %v) = %v, Definition 3 gives %v", tc.name, dep.IsDirect(), u, v, got, want[[2]core.Op{u, v}])
					}
				}
			}
			listed := 0
			rsg.Arcs(func(u, v core.Op, kind core.ArcKind) bool {
				if kind != want[[2]core.Op{u, v}] {
					t.Errorf("%s direct=%v: Arcs lists %v -> %v as %v, Definition 3 gives %v", tc.name, dep.IsDirect(), u, v, kind, want[[2]core.Op{u, v}])
				}
				listed++
				return true
			})
			if listed != len(want) || rsg.NumArcs() != len(want) {
				t.Errorf("%s direct=%v: Arcs listed %d, NumArcs %d, Definition 3 has %d", tc.name, dep.IsDirect(), listed, rsg.NumArcs(), len(want))
			}
		}
	}
}

// certifyInstance generates the ladder's certify-offline shape in
// package: programs of 16 operations over 512 objects, a quarter of
// them writes, atomic units of 4, interleaved eight at a time.
func certifyInstance(programs int, seed int64) (*core.Schedule, *core.Spec) {
	rng := rand.New(rand.NewSource(seed))
	txns := make([]*core.Transaction, programs)
	for i := range txns {
		ops := make([]core.Op, 16)
		for k := range ops {
			obj := fmt.Sprintf("o_%d", rng.Intn(512))
			if rng.Intn(4) == 0 {
				ops[k] = core.W(obj)
			} else {
				ops[k] = core.R(obj)
			}
		}
		txns[i] = core.T(core.TxnID(i+1), ops...)
	}
	return interleaveEight(rng, txns, []int{4, 8, 12})
}

// chainInstance generates the chain-soak shape: program i reads
// x(i-1) and writes x(i) over 257 objects, each program one unit
// relative to the others, interleaved eight at a time. Its
// transactions are as short as a program gets with a conflict on
// either side, so nearly every operation depends on everything before
// it.
func chainInstance(programs int, seed int64) (*core.Schedule, *core.Spec) {
	obj := func(i int) string { return fmt.Sprintf("x%d", i%257) }
	txns := make([]*core.Transaction, programs)
	for i := range txns {
		txns[i] = core.T(core.TxnID(i+1), core.R(obj(i)), core.W(obj(i+1)))
	}
	return interleaveEight(rand.New(rand.NewSource(seed)), txns, nil)
}

// interleaveEight schedules the programs as a closed loop of eight:
// programs are admitted in order, and each step runs the next
// operation of a random admitted one. Every pair is cut at the given
// positions.
func interleaveEight(rng *rand.Rand, txns []*core.Transaction, units []int) (*core.Schedule, *core.Spec) {
	ts := core.MustTxnSet(txns...)
	sp, err := core.SpecFromCuts(ts, func(_, _ *core.Transaction) []int { return units })
	if err != nil {
		panic(err)
	}
	next := make([]int, len(txns))
	active, admitted := []int{}, 0
	order := make([]core.Op, 0, ts.NumOps())
	for len(order) < ts.NumOps() {
		for len(active) < 8 && admitted < len(txns) {
			active = append(active, admitted)
			admitted++
		}
		k := rng.Intn(len(active))
		i := active[k]
		order = append(order, txns[i].Op(next[i]))
		if next[i]++; next[i] == txns[i].Len() {
			active = slices.Delete(active, k, k+1)
		}
	}
	return core.MustSchedule(ts, order), sp
}

var certifySink bool

// BenchmarkCertify is the offline Theorem 1 test as the ladder's
// certify-offline workload runs it: depends-on, graph, acyclicity.
func BenchmarkCertify(b *testing.B) {
	for _, programs := range []int{48, 192} {
		b.Run(fmt.Sprintf("programs=%d", programs), func(b *testing.B) {
			s, sp := certifyInstance(programs, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				certifySink = core.BuildRSGUnder(s, sp, core.ComputeDepends(s)).Acyclic()
			}
		})
	}
}

// BenchmarkCertifyFromTrace is the ladder's whole certify-offline timed
// region: index the committed programs, rebuild the schedule from the
// trace's operations, build the specification from the oracle's cuts,
// then depends-on, graph and acyclicity. The cuts function answers from
// one shared slice, as the workload oracles answer from tables. The
// chain shape has two operations per program, where the clock scan's
// per-transaction entries are the most numerous per operation.
func BenchmarkCertifyFromTrace(b *testing.B) {
	shapes := []struct {
		name     string
		programs int
		instance func(programs int, seed int64) (*core.Schedule, *core.Spec)
		units    []int
	}{
		{"programs", 48, certifyInstance, []int{4, 8, 12}},
		{"programs", 192, certifyInstance, []int{4, 8, 12}},
		{"programs", 768, certifyInstance, []int{4, 8, 12}},
		{"chain", 2000, chainInstance, nil},
	}
	for _, shape := range shapes {
		cuts := func(_, _ *core.Transaction) []int { return shape.units }
		b.Run(fmt.Sprintf("%s=%d", shape.name, shape.programs), func(b *testing.B) {
			s, _ := shape.instance(shape.programs, 1)
			txns, ops := s.Set().Txns(), s.Ops()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts, err := core.NewTxnSet(txns...)
				if err != nil {
					b.Fatal(err)
				}
				s, err := core.NewSchedule(ts, ops)
				if err != nil {
					b.Fatal(err)
				}
				sp, err := core.SpecFromCuts(ts, cuts)
				if err != nil {
					b.Fatal(err)
				}
				certifySink = core.BuildRSGUnder(s, sp, core.ComputeDepends(s)).Acyclic()
			}
		})
	}
}
