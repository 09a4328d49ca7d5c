package core_test

import (
	"math/rand"
	"testing"

	"relser/internal/core"
	"relser/internal/paperfig"
)

func TestDependsFigure2Transitivity(t *testing.T) {
	// §2, Figure 2: "w2[y] does not conflict with either w1[x] or
	// r1[z], but r1[z] is affected by w2[y]" — the dependency flows
	// w2[y] -> r3[y] -> w3[z] -> r1[z].
	inst := paperfig.Figure2()
	s := inst.Schedules["S1"]
	d := core.ComputeDepends(s)
	w1x := inst.Set.Txn(1).Op(0)
	r1z := inst.Set.Txn(1).Op(1)
	w2y := inst.Set.Txn(2).Op(0)
	r3y := inst.Set.Txn(3).Op(0)
	w3z := inst.Set.Txn(3).Op(1)

	if !d.DependsOn(r3y, w2y) {
		t.Error("r3[y] reads y after w2[y]: direct conflict dependency missing")
	}
	if !d.DependsOn(w3z, w2y) {
		t.Error("w3[z] follows r3[y] in T3: program-order + conflict dependency missing")
	}
	if !d.DependsOn(r1z, w2y) {
		t.Error("r1[z] must transitively depend on w2[y] (the figure's point)")
	}
	if !d.DependsOn(r1z, w3z) {
		t.Error("r1[z] reads z written by w3[z]")
	}
	if !d.DependsOn(r1z, w1x) {
		t.Error("r1[z] follows w1[x] in T1 (program order)")
	}
	if d.DependsOn(w2y, w1x) {
		t.Error("w2[y] has no dependency on w1[x]")
	}
	if d.DependsOn(w1x, w2y) {
		t.Error("dependencies never point backward in the schedule")
	}
}

func TestDirectDependsAblation(t *testing.T) {
	inst := paperfig.Figure2()
	s := inst.Schedules["S1"]
	direct := core.ComputeDirectDepends(s)
	if !direct.IsDirect() {
		t.Fatal("IsDirect should report true")
	}
	r1z := inst.Set.Txn(1).Op(1)
	w2y := inst.Set.Txn(2).Op(0)
	w3z := inst.Set.Txn(3).Op(1)
	if direct.DependsOn(r1z, w2y) {
		t.Error("direct relation must NOT relate r1[z] to w2[y] (no conflict, different txns)")
	}
	if !direct.DependsOn(r1z, w3z) {
		t.Error("direct relation must keep the immediate conflict w3[z] -> r1[z]")
	}
	full := core.ComputeDepends(s)
	if full.IsDirect() {
		t.Error("full relation must report IsDirect() == false")
	}
}

func TestDependsIrreflexiveAndOrdered(t *testing.T) {
	inst := paperfig.Figure1()
	s := inst.Schedules["Srs"]
	d := core.ComputeDepends(s)
	for pos := 0; pos < s.Len(); pos++ {
		op := s.At(pos)
		if d.DependsOn(op, op) {
			t.Errorf("%v depends on itself", op)
		}
		for q := pos + 1; q < s.Len(); q++ {
			if d.DependsOn(op, s.At(q)) {
				t.Errorf("%v depends on later operation %v", op, s.At(q))
			}
		}
	}
}

func TestDependsProgramOrder(t *testing.T) {
	inst := paperfig.Figure1()
	s := inst.Schedules["Sra"]
	d := core.ComputeDepends(s)
	for _, tx := range inst.Set.Txns() {
		for i := 0; i < tx.Len(); i++ {
			for j := i + 1; j < tx.Len(); j++ {
				if !d.DependsOn(tx.Op(j), tx.Op(i)) {
					t.Errorf("program order %v before %v not in depends-on", tx.Op(i), tx.Op(j))
				}
			}
		}
	}
}

// naiveDepends computes the depends-on relation by explicit transitive
// closure over all direct pairs, as the definition reads.
func naiveDepends(s *core.Schedule) [][]bool {
	n := s.Len()
	rel := make([][]bool, n)
	for i := range rel {
		rel[i] = make([]bool, n)
	}
	for q := 0; q < n; q++ {
		for p := 0; p < q; p++ {
			op, oq := s.At(p), s.At(q)
			if op.Txn == oq.Txn || op.ConflictsWith(oq) {
				rel[p][q] = true
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !rel[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if rel[k][j] {
					rel[i][j] = true
				}
			}
		}
	}
	return rel
}

func TestDependsMatchesNaiveClosureOnPaperSchedules(t *testing.T) {
	for _, named := range paperfig.All() {
		for _, name := range named.Instance.Names {
			s := named.Instance.Schedules[name]
			d := core.ComputeDepends(s)
			want := naiveDepends(s)
			for q := 0; q < s.Len(); q++ {
				for p := 0; p < s.Len(); p++ {
					got := d.DependsOnPos(q, p)
					if got != want[p][q] {
						t.Errorf("%s/%s: DependsOn(%v, %v) = %v, want %v",
							named.Name, name, s.At(q), s.At(p), got, want[p][q])
					}
				}
			}
		}
	}
}

func TestDependsMatchesNaiveClosureRandom(t *testing.T) {
	// Property: the rows built from the clock scan equal the
	// naive transitive closure on random schedules.
	rng := rand.New(rand.NewSource(99))
	objects := []string{"x", "y", "z", "u"}
	for trial := 0; trial < 60; trial++ {
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
		s := randomSchedule(rng, ts)
		d := core.ComputeDepends(s)
		want := naiveDepends(s)
		for q := 0; q < s.Len(); q++ {
			for p := 0; p < s.Len(); p++ {
				if d.DependsOnPos(q, p) != want[p][q] {
					t.Fatalf("trial %d: mismatch at (%v depends on %v): got %v want %v\nschedule: %s",
						trial, s.At(q), s.At(p), d.DependsOnPos(q, p), want[p][q], s)
				}
			}
		}
	}
}

// randomSchedule builds a uniformly random interleaving of the set.
func randomSchedule(rng *rand.Rand, ts *core.TxnSet) *core.Schedule {
	type cursor struct {
		t    *core.Transaction
		next int
	}
	var cursors []*cursor
	remaining := 0
	for _, tx := range ts.Txns() {
		cursors = append(cursors, &cursor{t: tx})
		remaining += tx.Len()
	}
	ops := make([]core.Op, 0, remaining)
	for remaining > 0 {
		k := rng.Intn(len(cursors))
		c := cursors[k]
		if c.next >= c.t.Len() {
			continue
		}
		ops = append(ops, c.t.Op(c.next))
		c.next++
		remaining--
	}
	return core.MustSchedule(ts, ops)
}

func TestDependsPredecessorsBitset(t *testing.T) {
	inst := paperfig.Figure2()
	s := inst.Schedules["S1"]
	d := core.ComputeDepends(s)
	// r1[z] is last (position 4) and depends on everything except w2[y]?
	// No: it depends on w2[y] too (transitively). It depends on all 4
	// earlier operations.
	preds := d.Predecessors(4)
	if preds.Count() != 4 {
		t.Errorf("r1[z] should depend on all 4 predecessors, got %v", preds.Elements())
	}
}
