package sched_test

// Online/offline equivalence properties: replaying a complete schedule
// through the graph-testing protocols (one op at a time, committing
// each transaction after its last operation) must reach the same
// verdict as the offline theory on the whole schedule:
//
//   - SGT fully admits S  ⟺  S is conflict serializable;
//   - RSGT fully admits S ⟺  S is relatively serializable (Theorem 1).
//
// Both directions hold because the graphs the protocols build online
// are exactly the offline graphs restricted to executed prefixes, and
// evicting a committed instance no live instance reaches can never
// remove a cycle participant. So the property is checked operation by
// operation: the first refusal must land on the first executed prefix
// the offline test rejects, whether retirement runs only inside Commit
// and Abort or also flushes after every commit.

import (
	"hash/fnv"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"relser/internal/core"
	"relser/internal/graph"
	"relser/internal/sched"
	"relser/internal/workload"
)

// genSchedInstance builds a random set, spec and complete schedule.
func genSchedInstance(rng *rand.Rand) (*core.TxnSet, *core.Spec, *core.Schedule) {
	objects := []string{"x", "y", "z"}
	nTxn := 2 + rng.Intn(3)
	txns := make([]*core.Transaction, nTxn)
	for i := range txns {
		nOps := 1 + rng.Intn(4)
		ops := make([]core.Op, nOps)
		for k := range ops {
			obj := objects[rng.Intn(len(objects))]
			if rng.Intn(2) == 0 {
				ops[k] = core.R(obj)
			} else {
				ops[k] = core.W(obj)
			}
		}
		txns[i] = core.T(core.TxnID(i+1), ops...)
	}
	ts := core.MustTxnSet(txns...)
	sp := core.NewSpec(ts)
	for _, a := range txns {
		for _, b := range txns {
			if a.ID == b.ID {
				continue
			}
			for p := 0; p+1 < a.Len(); p++ {
				if rng.Intn(3) == 0 {
					if err := sp.CutAfter(a.ID, b.ID, p); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	// Random interleaving.
	cursors := make([]int, nTxn)
	ops := make([]core.Op, 0, ts.NumOps())
	for len(ops) < ts.NumOps() {
		k := rng.Intn(nTxn)
		if cursors[k] == txns[k].Len() {
			continue
		}
		ops = append(ops, txns[k].Op(cursors[k]))
		cursors[k]++
	}
	return ts, sp, core.MustSchedule(ts, ops)
}

// firstRefusal feeds s through p one operation at a time, committing each
// transaction after its final operation. With flush every commit is
// followed by a retirement flush, so the graph compacts while the
// schedule is still in flight (small corpora never reach the
// count-based epoch thresholds on their own). It returns the position
// of the first operation not granted, or s.Len() when all were.
func firstRefusal(p sched.Protocol, s *core.Schedule, flush bool) int {
	ts := s.Set()
	for _, tx := range ts.Txns() {
		p.Begin(int64(tx.ID), tx)
	}
	executed := make(map[core.TxnID]int)
	for pos := 0; pos < s.Len(); pos++ {
		op := s.At(pos)
		tx := ts.Txn(op.Txn)
		req := sched.OpRequest{Instance: int64(op.Txn), Program: tx, Seq: executed[op.Txn], Op: op}
		if p.Request(req) != sched.Grant {
			return pos
		}
		executed[op.Txn]++
		if executed[op.Txn] == tx.Len() {
			p.Commit(int64(op.Txn))
			if flush {
				p.(sched.Retirer).FlushRetirement()
			}
		}
	}
	return s.Len()
}

// admits reports whether p grants every operation of s.
func admits(p sched.Protocol, s *core.Schedule) bool { return firstRefusal(p, s, false) == s.Len() }

// prefix returns the first n operations of s as a schedule of their
// own: each transaction truncated to its operations among them (and
// dropped if it has none), and sp restricted to the truncated programs.
func prefix(s *core.Schedule, sp *core.Spec, n int) (*core.Schedule, *core.Spec) {
	ops := make([]core.Op, n)
	executed := make(map[core.TxnID]int)
	for pos := range ops {
		ops[pos] = s.At(pos)
		executed[ops[pos].Txn]++
	}
	var txns []*core.Transaction
	for _, tx := range s.Set().Txns() {
		if k := executed[tx.ID]; k > 0 {
			txns = append(txns, core.T(tx.ID, tx.Ops[:k]...))
		}
	}
	ts := core.MustTxnSet(txns...)
	full := sched.SpecOracle{Spec: sp}
	restricted, err := core.SpecFromCuts(ts, func(a, b *core.Transaction) []int {
		var cuts []int
		for _, c := range full.Cuts(s.Set().Txn(a.ID), s.Set().Txn(b.ID)) {
			if c < a.Len() {
				cuts = append(cuts, c)
			}
		}
		return cuts
	})
	if err != nil {
		panic(err)
	}
	return core.MustSchedule(ts, ops), restricted
}

// firstRejected returns the position whose execution first makes the
// executed prefix of s unacceptable to the offline oracle — the
// operation an exact online protocol must refuse — or s.Len() when the
// whole schedule is acceptable.
func firstRejected(s *core.Schedule, sp *core.Spec, oracle func(*core.Schedule, *core.Spec) bool) int {
	for n := 1; n <= s.Len(); n++ {
		if !oracle(prefix(s, sp, n)) {
			return n - 1
		}
	}
	return s.Len()
}

// matchesOracle replays s through p — with a retirement flush after
// every commit when flush is set, otherwise only what Commit and Abort
// retire — and fails
// unless p refuses first exactly where the offline oracle first
// rejects the executed prefix (or, on an acceptable schedule, grants
// everything). It returns the oracle's position.
func matchesOracle(t *testing.T, trial int, s *core.Schedule, sp *core.Spec, p sched.Protocol, flush bool, oracle func(*core.Schedule, *core.Spec) bool) int {
	t.Helper()
	want := firstRejected(s, sp, oracle)
	if got := firstRefusal(p, s, flush); got != want {
		t.Fatalf("trial %d (flush=%v): first refusal at position %d, offline oracle first rejects the prefix ending at %d (%d = none)\nschedule: %s\nspec:\n%s",
			trial, flush, got, want, s.Len(), s, sp)
	}
	return want
}

func conflictSerializable(s *core.Schedule, _ *core.Spec) bool { return core.IsConflictSerializable(s) }

func TestPropertyRSGTMatchesTheorem1(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 400; trial++ {
		_, sp, s := genSchedInstance(rng)
		matchesOracle(t, trial, s, sp, sched.NewRSGT(sched.SpecOracle{Spec: sp}), false, core.IsRelativelySerializable)
	}
}

// TestPropertyRetiredRSGTMatchesTheorem1 replays the same corpus with
// a retirement flush after every commit, and checks the online graph
// of every admissible schedule against the offline RSG.
func TestPropertyRetiredRSGTMatchesTheorem1(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	admissible := 0
	for trial := 0; trial < 400; trial++ {
		_, sp, s := genSchedInstance(rng)
		if matchesOracle(t, trial, s, sp, sched.NewRSGT(sched.SpecOracle{Spec: sp}), true, core.IsRelativelySerializable) == s.Len() {
			admissible++
			derivedLabelsMatchOffline(t, trial, s, sp)
		}
	}
	if admissible == 0 || admissible == 400 {
		t.Fatalf("%d of 400 schedules admissible: the sample must exercise both verdicts", admissible)
	}
}

func TestPropertySGTMatchesConflictSerializability(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 400; trial++ {
		_, sp, s := genSchedInstance(rng)
		matchesOracle(t, trial, s, sp, sched.NewSGT(), false, conflictSerializable)
	}
}

func TestPropertyRetiredSGTMatchesConflictSerializability(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 400; trial++ {
		_, sp, s := genSchedInstance(rng)
		matchesOracle(t, trial, s, sp, sched.NewSGT(), true, conflictSerializable)
	}
}

// lockstep replays s through two protocols simultaneously and fails on
// the first operation where their decisions differ. Commit follows
// each transaction's final granted operation on both sides; only the
// retired side flushes retirement after it, while the baseline keeps
// every committed vertex that the commit-time sweep leaves (small corpora never
// reach the epoch thresholds). The replay stops at the first
// non-Grant, like firstRefusal.
func lockstep(t *testing.T, trial int, s *core.Schedule, base, retired sched.Protocol) {
	t.Helper()
	ts := s.Set()
	for _, tx := range ts.Txns() {
		base.Begin(int64(tx.ID), tx)
		retired.Begin(int64(tx.ID), tx)
	}
	executed := make(map[core.TxnID]int)
	for pos := 0; pos < s.Len(); pos++ {
		op := s.At(pos)
		tx := ts.Txn(op.Txn)
		req := sched.OpRequest{Instance: int64(op.Txn), Program: tx, Seq: executed[op.Txn], Op: op}
		db := base.Request(req)
		dr := retired.Request(req)
		if db != dr {
			t.Fatalf("trial %d pos %d (%s): baseline=%v retired=%v\nschedule: %s", trial, pos, op, db, dr, s)
		}
		if db != sched.Grant {
			return
		}
		executed[op.Txn]++
		if executed[op.Txn] == tx.Len() {
			base.Commit(int64(op.Txn))
			retired.Commit(int64(op.Txn))
			retired.(sched.Retirer).FlushRetirement()
		}
	}
}

func TestPropertyRetiredRSGTDecisionsMatchBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(1010))
	for trial := 0; trial < 300; trial++ {
		_, sp, s := genSchedInstance(rng)
		lockstep(t, trial, s,
			sched.NewRSGT(sched.SpecOracle{Spec: sp}),
			sched.NewRSGT(sched.SpecOracle{Spec: sp}))
	}
}

func TestPropertyRetiredSGTDecisionsMatchBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(1111))
	for trial := 0; trial < 300; trial++ {
		_, _, s := genSchedInstance(rng)
		lockstep(t, trial, s, sched.NewSGT(), sched.NewSGT())
	}
}

func TestPropertyRSGTAbsoluteEqualsSGT(t *testing.T) {
	// Under the absolute oracle the two protocols accept exactly the
	// same schedules (the online face of Lemma 1).
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 300; trial++ {
		_, _, s := genSchedInstance(rng)
		rsgt := admits(sched.NewRSGT(sched.AbsoluteOracle{}), s)
		sgt := admits(sched.NewSGT(), s)
		if rsgt != sgt {
			t.Fatalf("trial %d: rsgt=%v sgt=%v on %s", trial, rsgt, sgt, s)
		}
	}
	// And whole runs, aborts and restarts included: on the dense
	// absolute mix every decision, hence the result, the committed
	// schedule and the certification counters, must be SGT's. A
	// certifier that kept an arc implied only through an instance that
	// later aborted would refuse where SGT grants.
	for seed := int64(1); seed <= 20; seed++ {
		w, err := workload.Synthetic(workload.SyntheticConfig{
			Objects: 128, Programs: 96, OpsPerTxn: 16, WriteRatio: 0.25,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		rsgt := runDigest(t, w, sched.NewRSGT(sched.AbsoluteOracle{}), seed)
		sgt := runDigest(t, w, sched.NewSGT(), seed)
		if rsgt != sgt {
			t.Errorf("seed %d: runs differ\nrsgt %+v\n sgt %+v", seed, rsgt, sgt)
		}
	}
}

// runSummary is what a serial run decided: the result line after the
// protocol name, a digest of the committed schedule, and the
// certification counters.
type runSummary struct {
	result   string
	schedule uint64
	retire   sched.RetireStats
}

func runDigest(t *testing.T, w *workload.Workload, p sched.Protocol, seed int64) runSummary {
	t.Helper()
	res, _, err := w.RunWith(p, workload.RunOptions{Seed: seed, MPL: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := res.CommittedSchedule()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write([]byte(s.String()))
	return runSummary{strings.TrimPrefix(res.String(), p.Name()), h.Sum64(), res.Retire}
}

// TestRSGTAdmitsMixedSpecCounterexample is THEORY.md §4's witness that
// collapsing one absolute transaction to a single vertex is exact only
// when every transaction is absolute. T1 is absolute relative to both
// others, T2 is a unit per operation relative to T3, and T3 is
// [w3[o4]] [w3[o3] r3[o1]] relative to T1 and a unit per operation
// relative to T2. The schedule is relatively serializable but not
// conflict serializable; a T1 collapsed to one vertex would close the
// cycle T1 -> w3[o3] -> r2[o3] -> T1, so RSGT must keep T1's vertices
// and admit every operation.
func TestRSGTAdmitsMixedSpecCounterexample(t *testing.T) {
	t1 := core.T(1, core.W("o1"), core.R("o2"))
	t2 := core.T(2, core.W("o2"), core.R("o3"))
	t3 := core.T(3, core.W("o4"), core.W("o3"), core.R("o1"))
	ts := core.MustTxnSet(t1, t2, t3)
	sp := core.NewSpec(ts)
	for _, c := range []struct {
		of, rel core.TxnID
		after   int
	}{{2, 3, 0}, {3, 1, 0}, {3, 2, 0}, {3, 2, 1}} {
		if err := sp.CutAfter(c.of, c.rel, c.after); err != nil {
			t.Fatal(err)
		}
	}
	s, err := core.ParseSchedule(ts, "w1[o1] w2[o2] w3[o4] w3[o3] r2[o3] r1[o2] r3[o1]")
	if err != nil {
		t.Fatal(err)
	}
	if !core.IsRelativelySerializable(s, sp) || core.IsConflictSerializable(s) {
		t.Fatalf("fixture must be relatively but not conflict serializable: rs=%v csr=%v",
			core.IsRelativelySerializable(s, sp), core.IsConflictSerializable(s))
	}
	if at := firstRefusal(sched.NewRSGT(sched.SpecOracle{Spec: sp}), s, false); at != s.Len() {
		t.Fatalf("RSGT refused %s under the mixed spec", s.At(at))
	}
	if admits(sched.NewRSGT(sched.AbsoluteOracle{}), s) {
		t.Fatal("RSGT under AbsoluteOracle admitted a schedule that is not conflict serializable")
	}
}

func TestPropertyRSGTMonotoneInSpec(t *testing.T) {
	// Finer units never shrink the admitted set: everything RSGT
	// admits under absolute atomicity it also admits under any
	// relaxation. (The offline classes have the same monotonicity.)
	rng := rand.New(rand.NewSource(707))
	for trial := 0; trial < 300; trial++ {
		_, sp, s := genSchedInstance(rng)
		absOK := admits(sched.NewRSGT(sched.AbsoluteOracle{}), s)
		if !absOK {
			continue
		}
		if !admits(sched.NewRSGT(sched.SpecOracle{Spec: sp}), s) {
			t.Fatalf("trial %d: admitted under absolute but rejected under relaxed spec\nschedule: %s\nspec:\n%s", trial, s, sp)
		}
	}
}

var (
	dotNode = regexp.MustCompile(`(?m)^  n(\d+) \[label="\S+ #(\d+)"\];$`)
	dotEdge = regexp.MustCompile(`(?m)^  n(\d+) -> n(\d+) \[label="([^"]*)"\];$`)

	kindOfLetter = map[string]core.ArcKind{"I": core.IArc, "D": core.DArc, "F": core.FArc, "B": core.BArc}
)

// derivedLabelsMatchOffline admits all of s without committing, so
// every instance stays resident, and checks RSGT's DOT snapshot against
// the offline RSG of the same schedule. RSGT inserts only G″ (THEORY.md
// §4): I-arcs, and per request the F- and B-arc of each clock entry it
// advanced. So the online graph is a subgraph of Definition 3's: every
// rendered arc must be an offline arc whose derived I/F/B label — not
// stored with the arc, so pinned only here — is a subset of the offline
// kinds, no cross-transaction arc may be a D-arc alone, and the online
// graph has no more arcs than the offline G″. The dominance lemma is
// what makes the subgraph enough: both graphs must have the same
// transitive closure.
func derivedLabelsMatchOffline(t *testing.T, trial int, s *core.Schedule, sp *core.Spec) {
	t.Helper()
	p := sched.NewRSGT(sched.SpecOracle{Spec: sp})
	ts := s.Set()
	for _, tx := range ts.Txns() {
		p.Begin(int64(tx.ID), tx)
	}
	executed := make(map[core.TxnID]int)
	for pos := 0; pos < s.Len(); pos++ {
		op := s.At(pos)
		req := sched.OpRequest{Instance: int64(op.Txn), Program: ts.Txn(op.Txn), Seq: executed[op.Txn], Op: op}
		if d := p.Request(req); d != sched.Grant {
			t.Fatalf("trial %d: relatively serializable schedule refused at %s: %v", trial, op, d)
		}
		executed[op.Txn]++
	}
	dot := p.DotSnapshot()
	// Nodes are listed per instance in program order.
	opOf := make(map[string]core.Op)
	next := make(map[core.TxnID]int)
	for _, m := range dotNode.FindAllStringSubmatch(dot, -1) {
		id, _ := strconv.Atoi(m[2])
		tx := ts.Txn(core.TxnID(id))
		opOf[m[1]] = tx.Op(next[tx.ID])
		next[tx.ID]++
	}
	if len(opOf) != ts.NumOps() {
		t.Fatalf("trial %d: snapshot names %d of %d operations:\n%s", trial, len(opOf), ts.NumOps(), dot)
	}
	offline := core.BuildRSG(s, sp)
	online := graph.NewDense(ts.NumOps())
	for _, m := range dotEdge.FindAllStringSubmatch(dot, -1) {
		u, v := opOf[m[1]], opOf[m[2]]
		var got core.ArcKind
		for _, letter := range strings.Split(m[3], ",") {
			got |= kindOfLetter[letter]
		}
		if want := offline.ArcKinds(u, v); got == 0 || got&^want != 0 {
			t.Fatalf("trial %d: arc %v -> %v derived as %q, offline RSG says %q\nschedule: %s\nspec:\n%s",
				trial, u, v, m[3], want, s, sp)
		}
		if u.Txn != v.Txn && got&(core.FArc|core.BArc) == 0 {
			t.Fatalf("trial %d: cross-transaction arc %v -> %v derived as %q: RSGT inserts only staircase F/B arcs\nschedule: %s\nspec:\n%s",
				trial, u, v, m[3], s, sp)
		}
		online.AddArc(ts.GlobalIndexOf(u), ts.GlobalIndexOf(v))
	}
	if online.ArcCount() > offline.TestedArcs() {
		t.Fatalf("trial %d: online graph has %d arcs, offline G″ %d\nschedule: %s\nspec:\n%s\n%s",
			trial, online.ArcCount(), offline.TestedArcs(), s, sp, dot)
	}
	full := graph.NewDense(ts.NumOps())
	offline.Arcs(func(u, v core.Op, _ core.ArcKind) bool {
		full.AddArc(ts.GlobalIndexOf(u), ts.GlobalIndexOf(v))
		return true
	})
	reach, want := online.TransitiveClosure(), full.TransitiveClosure()
	for u := 0; u < ts.NumOps(); u++ {
		for v := 0; v < ts.NumOps(); v++ {
			if reach.HasArc(u, v) != want.HasArc(u, v) {
				t.Fatalf("trial %d: %v reaches %v online=%v offline=%v (%d of %d arcs kept)\nschedule: %s\nspec:\n%s\n%s",
					trial, ts.OpAt(u), ts.OpAt(v), reach.HasArc(u, v), want.HasArc(u, v), online.ArcCount(), offline.NumArcs(), s, sp, dot)
			}
		}
	}
}

// TestRSGTPruningBoundsGraph: sequential (non-overlapping)
// transactions leave the graph as they commit, so while hundreds of them
// stream through — with no low-water mark and no flush — the graph
// holds at most what the epoch rule lets the retirement queue reach.
// SGT, RSGT's absolute special case, shares the certifier and the
// bound.
func TestRSGTPruningBoundsGraph(t *testing.T) {
	for _, p := range []sched.Protocol{sched.NewRSGT(sched.AbsoluteOracle{}), sched.NewSGT()} {
		t.Run(p.Name(), func(t *testing.T) {
			r := p.(sched.Retirer)
			for i := 1; i <= 500; i++ {
				tx := core.T(core.TxnID(i), core.R("x"), core.W("x"))
				p.Begin(int64(i), tx)
				for seq := 0; seq < 2; seq++ {
					req := sched.OpRequest{Instance: int64(i), Program: tx, Seq: seq, Op: tx.Op(seq)}
					if d := p.Request(req); d != sched.Grant {
						t.Fatalf("sequential txn %d op %d: %v", i, seq, d)
					}
				}
				p.Commit(int64(i))
				// The epoch fires once 64 vertices are queued and they are
				// half the graph; queued vertices count in both fields.
				if st := r.RetireStats(); st.LiveVertices+st.PendingRetire > 256 {
					t.Fatalf("txn %d: live=%d pending=%d — the sweep or the epoch rule not bounding the graph",
						i, st.LiveVertices, st.PendingRetire)
				}
			}
			if st := r.RetireStats(); st.GraphEpochs == 0 {
				t.Fatal("500 committed transactions never triggered a graph epoch")
			}
		})
	}
}

func TestPropertyTOAdmissionsAreSerializable(t *testing.T) {
	// Whatever basic T/O admits is conflict serializable: every granted
	// conflicting pair executes in ascending timestamp order, so the
	// serialization graph's arcs ascend timestamps.
	rng := rand.New(rand.NewSource(808))
	admitted := 0
	for trial := 0; trial < 400; trial++ {
		_, _, s := genSchedInstance(rng)
		if admits(sched.NewTOSharded(1), s) {
			admitted++
			if !core.IsConflictSerializable(s) {
				t.Fatalf("trial %d: T/O admitted a non-serializable schedule %s", trial, s)
			}
		}
	}
	if admitted == 0 {
		t.Fatal("T/O admitted nothing across 400 trials (generator broken?)")
	}
}

func TestPropertyRALAdmissionsAreRelativelySerializable(t *testing.T) {
	// RAL embeds the RSG, so anything it fully admits must pass the
	// offline Theorem 1 test. (RAL may also Block where RSGT would
	// grant, so it admits a subset — soundness is the property, not
	// equality.)
	rng := rand.New(rand.NewSource(909))
	admitted := 0
	for trial := 0; trial < 400; trial++ {
		_, sp, s := genSchedInstance(rng)
		if admits(sched.NewRAL(sched.SpecOracle{Spec: sp}), s) {
			admitted++
			if !core.IsRelativelySerializable(s, sp) {
				t.Fatalf("trial %d: RAL admitted a non-relatively-serializable schedule %s", trial, s)
			}
		}
	}
	if admitted == 0 {
		t.Fatal("RAL admitted nothing across 400 trials")
	}
}
