package core_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"relser/internal/core"
	"relser/internal/paperfig"
)

func TestSpecDefaultsAbsolute(t *testing.T) {
	ts := core.MustTxnSet(
		core.T(1, core.R("x"), core.W("x"), core.W("z")),
		core.T(2, core.R("y")),
	)
	sp := core.NewSpec(ts)
	if !sp.IsAbsolute() {
		t.Error("fresh spec should be absolute atomicity")
	}
	if n := sp.NumUnits(1, 2); n != 1 {
		t.Errorf("NumUnits(1,2) = %d, want 1", n)
	}
	s, e := sp.UnitOf(1, 1, 2)
	if s != 0 || e != 2 {
		t.Errorf("UnitOf = [%d,%d], want [0,2]", s, e)
	}
}

func TestSpecSetUnitsFigure1(t *testing.T) {
	inst := paperfig.Figure1()
	sp := inst.Spec
	// Atomicity(T1, T2) = <[r1x w1x], [w1z r1y]>.
	if n := sp.NumUnits(1, 2); n != 2 {
		t.Fatalf("NumUnits(1,2) = %d, want 2", n)
	}
	s, e := sp.Unit(1, 2, 0)
	if s != 0 || e != 1 {
		t.Errorf("unit 0 = [%d,%d], want [0,1]", s, e)
	}
	s, e = sp.Unit(1, 2, 1)
	if s != 2 || e != 3 {
		t.Errorf("unit 1 = [%d,%d], want [2,3]", s, e)
	}
	if sp.IsAbsolute() {
		t.Error("Figure 1 spec is not absolute")
	}
	if got := sp.Atomicity(1, 2); got != "[r1[x] w1[x]] [w1[z] r1[y]]" {
		t.Errorf("Atomicity(1,2) = %q", got)
	}
	if idx := sp.UnitIndexOf(1, 3, 2); idx != 1 {
		t.Errorf("UnitIndexOf(1, seq 3, rel 2) = %d, want 1", idx)
	}
}

func TestSpecPushForwardPullBackwardPaper(t *testing.T) {
	// §3: "PushForward(r1[x], T2) is w1[x] and PullBackward(r1[y], T2)
	// is w1[z]" for the Figure 1 specifications.
	inst := paperfig.Figure1()
	sp := inst.Spec
	t1 := inst.Set.Txn(1)
	r1x, w1x, w1z, r1y := t1.Op(0), t1.Op(1), t1.Op(2), t1.Op(3)
	if got := sp.PushForward(r1x, 2); got != w1x {
		t.Errorf("PushForward(r1[x], T2) = %v, want %v", got, w1x)
	}
	if got := sp.PullBackward(r1y, 2); got != w1z {
		t.Errorf("PullBackward(r1[y], T2) = %v, want %v", got, w1z)
	}
	// Relative to T3, w1[z] and r1[y] are singleton units.
	if got := sp.PushForward(w1z, 3); got != w1z {
		t.Errorf("PushForward(w1[z], T3) = %v, want itself", got)
	}
	if got := sp.PullBackward(r1y, 3); got != r1y {
		t.Errorf("PullBackward(r1[y], T3) = %v, want itself", got)
	}
}

// TestUnitBoundsOneRule checks the atomic-unit rule against a brute-force
// unit index, the number of cuts at or before seq, whose unit is every
// operation with the same index. It runs over random ascending cut sets
// for lengths 1–8, with and without the no-op trailing cut at the
// length, and checks the Spec queries built on the rule against the
// same reference, the specification built both by SpecFromCuts and by
// CutAfter in random order.
func TestUnitBoundsOneRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for length := 1; length <= 8; length++ {
		ops := make([]core.Op, length)
		for i := range ops {
			ops[i] = core.W("x")
		}
		ts := core.MustTxnSet(core.T(1, ops...), core.T(2, core.R("x")))
		for trial := 0; trial < 200; trial++ {
			var cuts []int
			for p := 1; p < length; p++ {
				if rng.Intn(2) == 0 {
					cuts = append(cuts, p)
				}
			}
			inner := slices.Clone(cuts)
			if rng.Intn(2) == 0 {
				cuts = append(cuts, length)
			}
			index := func(seq int) int {
				k := 0
				for _, c := range cuts {
					if c <= seq {
						k++
					}
				}
				return k
			}

			fromCuts, err := core.SpecFromCuts(ts, func(a, _ *core.Transaction) []int {
				if a.ID == 1 {
					return cuts
				}
				return nil
			})
			if err != nil {
				t.Fatalf("cuts %v: %v", cuts, err)
			}
			cutAfter := core.NewSpec(ts)
			for _, k := range rng.Perm(len(cuts)) {
				if err := cutAfter.CutAfter(1, 2, cuts[k]-1); err != nil {
					t.Fatalf("cuts %v: CutAfter(%d): %v", cuts, cuts[k]-1, err)
				}
			}

			for seq := 0; seq < length; seq++ {
				k := index(seq)
				start, end := seq, seq
				for start > 0 && index(start-1) == k {
					start--
				}
				for end < length-1 && index(end+1) == k {
					end++
				}
				if s, e := core.UnitBounds(cuts, length, seq); s != start || e != end {
					t.Fatalf("UnitBounds(%v, %d, %d) = [%d, %d], want [%d, %d]", cuts, length, seq, s, e, start, end)
				}
				for name, sp := range map[string]*core.Spec{"SpecFromCuts": fromCuts, "CutAfter": cutAfter} {
					if got := sp.Cuts(1, 2); !slices.Equal(got, inner) {
						t.Fatalf("cuts %v: %s stores %v, want %v", cuts, name, got, inner)
					}
					if s, e := sp.UnitOf(1, seq, 2); s != start || e != end {
						t.Fatalf("cuts %v: %s UnitOf(seq %d) = [%d, %d], want [%d, %d]", cuts, name, seq, s, e, start, end)
					}
					if got := sp.UnitIndexOf(1, seq, 2); got != k {
						t.Fatalf("cuts %v: %s UnitIndexOf(seq %d) = %d, want %d", cuts, name, seq, got, k)
					}
					if s, e := sp.Unit(1, 2, k); s != start || e != end {
						t.Fatalf("cuts %v: %s Unit(%d) = [%d, %d], want [%d, %d]", cuts, name, k, s, e, start, end)
					}
					o := ts.Txn(1).Op(seq)
					if got := sp.PushForward(o, 2); got.Seq != end {
						t.Fatalf("cuts %v: %s PushForward(%v) = %v, want seq %d", cuts, name, o, got, end)
					}
					if got := sp.PullBackward(o, 2); got.Seq != start {
						t.Fatalf("cuts %v: %s PullBackward(%v) = %v, want seq %d", cuts, name, o, got, start)
					}
				}
			}
		}
	}
}

func TestSpecSetUnitsValidation(t *testing.T) {
	ts := core.MustTxnSet(core.T(1, core.R("x"), core.W("x")), core.T(2, core.R("y")))
	sp := core.NewSpec(ts)
	cases := []struct {
		name string
		err  error
	}{
		{"wrong sum", sp.SetUnits(1, 2, 1, 2)},
		{"zero unit", sp.SetUnits(1, 2, 0, 2)},
		{"self pair", sp.SetUnits(1, 1, 2)},
		{"unknown i", sp.SetUnits(9, 2, 1)},
		{"unknown j", sp.SetUnits(1, 9, 2)},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestSpecCutAfter(t *testing.T) {
	ts := core.MustTxnSet(core.T(1, core.R("a"), core.R("b"), core.R("c")), core.T(2, core.W("a")))
	sp := core.NewSpec(ts)
	if err := sp.CutAfter(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if n := sp.NumUnits(1, 2); n != 2 {
		t.Fatalf("NumUnits = %d after one cut", n)
	}
	// Duplicate cut is a no-op.
	if err := sp.CutAfter(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if n := sp.NumUnits(1, 2); n != 2 {
		t.Fatalf("NumUnits = %d after duplicate cut", n)
	}
	// Cut after last operation is a no-op.
	if err := sp.CutAfter(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	if n := sp.NumUnits(1, 2); n != 2 {
		t.Fatalf("NumUnits = %d after trailing cut", n)
	}
	// Out-of-order cuts keep sorted unit boundaries.
	if err := sp.CutAfter(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	s, e := sp.Unit(1, 2, 1)
	if s != 1 || e != 1 {
		t.Errorf("middle unit = [%d,%d], want [1,1]", s, e)
	}
	if err := sp.CutAfter(1, 2, 7); err == nil {
		t.Error("out-of-range cut accepted")
	}
}

// TestSpecFromCutsSharesOracleSlices: SpecFromCuts keeps the oracle's
// slice for every pair it answers, and a later CutAfter on one pair
// edits a copy, never the slice the oracle and the other pairs share.
func TestSpecFromCutsSharesOracleSlices(t *testing.T) {
	ts := core.MustTxnSet(
		core.T(1, core.R("a"), core.R("b"), core.R("c"), core.R("d")),
		core.T(2, core.W("a")), core.T(3, core.W("b")))
	split := make([]int, 1, 4) // spare capacity an in-place insert would write into
	split[0] = 2
	sp, err := core.SpecFromCuts(ts, func(a, _ *core.Transaction) []int {
		if a.ID == 1 {
			return split
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.CutAfter(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if got := sp.Cuts(1, 2); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("Cuts(1, 2) = %v after CutAfter, want [1 2]", got)
	}
	if got := sp.Cuts(1, 3); !slices.Equal(got, []int{2}) || !slices.Equal(split[:cap(split)], []int{2, 0, 0, 0}) {
		t.Fatalf("CutAfter on (1, 2) reached the shared slice: Cuts(1, 3) = %v, oracle's array %v", got, split[:cap(split)])
	}
	if _, err := core.SpecFromCuts(ts, func(a, _ *core.Transaction) []int { return []int{2, 2} }); err == nil {
		t.Fatal("repeated boundary accepted")
	}
}

// TestSpecFromCutsChecksEveryPair: a slice shared by several pairs is
// checked for order once, but against each pair's own transaction
// length, so a shared slice past the end of a shorter program is
// refused at that program.
func TestSpecFromCutsChecksEveryPair(t *testing.T) {
	ts := core.MustTxnSet(
		core.T(1, core.R("a"), core.R("b"), core.R("c"), core.R("d")),
		core.T(2, core.W("a"), core.W("b")), core.T(3, core.W("b")))
	shared := []int{3}
	_, err := core.SpecFromCuts(ts, func(_, _ *core.Transaction) []int { return shared })
	if err == nil || !strings.Contains(err.Error(), "Atomicity(T2, T1)") {
		t.Fatalf("boundary 3 of a 2-operation program: err = %v, want it refused at (T2, T1)", err)
	}
	zero := []int{0, 2}
	if _, err := core.SpecFromCuts(ts, func(_, _ *core.Transaction) []int { return zero }); err == nil {
		t.Fatal("boundary 0 accepted")
	}
}

// TestSpecEditsKeepOtherPairs: pairs that share one slice of the table
// keep it when one of them is edited, however often, and a clone's
// edits leave the original alone.
func TestSpecEditsKeepOtherPairs(t *testing.T) {
	ts := core.MustTxnSet(
		core.T(1, core.R("a"), core.R("b"), core.R("c"), core.R("d")),
		core.T(2, core.W("a")), core.T(3, core.W("b")))
	split := []int{2}
	sp, err := core.SpecFromCuts(ts, func(a, _ *core.Transaction) []int {
		if a.ID == 1 {
			return split
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []int{0, 2} {
		if err := sp.CutAfter(1, 2, seq); err != nil {
			t.Fatal(err)
		}
	}
	c := sp.Clone()
	if err := c.CutAfter(1, 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.SetUnits(1, 2, 4); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sp   *core.Spec
		i, j core.TxnID
		want []int
	}{
		{sp, 1, 2, []int{1, 2, 3}}, {sp, 1, 3, []int{2}}, {sp, 2, 1, nil},
		{c, 1, 2, nil}, {c, 1, 3, []int{1, 2}},
	} {
		if got := tc.sp.Cuts(tc.i, tc.j); !slices.Equal(got, tc.want) {
			t.Errorf("Cuts(%d, %d) = %v, want %v (clone: %v)", tc.i, tc.j, got, tc.want, tc.sp == c)
		}
	}
	if !slices.Equal(split, []int{2}) {
		t.Errorf("the oracle's slice became %v", split)
	}
}

func TestSpecAllowAll(t *testing.T) {
	ts := core.MustTxnSet(core.T(1, core.R("a"), core.R("b"), core.R("c")), core.T(2, core.W("a")))
	sp := core.NewSpec(ts)
	if err := sp.AllowAll(1, 2); err != nil {
		t.Fatal(err)
	}
	if n := sp.NumUnits(1, 2); n != 3 {
		t.Fatalf("NumUnits = %d, want 3 singleton units", n)
	}
	sp2 := core.NewSpec(ts)
	sp2.AllowAllPairs()
	if sp2.NumUnits(1, 2) != 3 || sp2.NumUnits(2, 1) != 1 {
		t.Error("AllowAllPairs wrong (T2 has one op, so one unit)")
	}
}

func TestSpecClone(t *testing.T) {
	inst := paperfig.Figure1()
	clone := inst.Spec.Clone()
	if err := clone.AllowAll(1, 2); err != nil {
		t.Fatal(err)
	}
	if inst.Spec.NumUnits(1, 2) != 2 {
		t.Error("mutating clone affected original")
	}
	if clone.NumUnits(1, 2) != 4 {
		t.Error("clone mutation lost")
	}
}

func TestSpecString(t *testing.T) {
	inst := paperfig.Figure2()
	out := inst.Spec.String()
	for _, want := range []string{
		"Atomicity(T1, T3): [w1[x]] [r1[z]]",
		"Atomicity(T3, T1): [r3[y]] [w3[z]]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Spec.String missing %q:\n%s", want, out)
		}
	}
	// Absolute pairs are omitted.
	if strings.Contains(out, "Atomicity(T1, T2)") {
		t.Errorf("absolute pair should be omitted:\n%s", out)
	}
	abs := core.NewSpec(inst.Set)
	if abs.String() != "(absolute atomicity)" {
		t.Errorf("absolute spec renders %q", abs.String())
	}
}

func TestSpecLatticeOps(t *testing.T) {
	ts := core.MustTxnSet(
		core.T(1, core.R("a"), core.R("b"), core.R("c")),
		core.T(2, core.W("a")),
	)
	a := core.NewSpec(ts)
	if err := a.CutAfter(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	b := core.NewSpec(ts)
	if err := b.CutAfter(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.CutAfter(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	join := a.Refine(b)
	if join.NumUnits(1, 2) != 3 {
		t.Errorf("join units = %d, want 3", join.NumUnits(1, 2))
	}
	meet := a.Coarsen(b)
	if meet.NumUnits(1, 2) != 2 {
		t.Errorf("meet units = %d, want 2 (shared cut only)", meet.NumUnits(1, 2))
	}
	if !join.RefinesOrEquals(a) || !join.RefinesOrEquals(b) {
		t.Error("join must refine both operands")
	}
	if !a.RefinesOrEquals(meet) || !b.RefinesOrEquals(meet) {
		t.Error("both operands must refine the meet")
	}
	if a.RefinesOrEquals(b) {
		t.Error("a lacks b's second cut")
	}
	// Inputs untouched.
	if a.NumUnits(1, 2) != 2 || b.NumUnits(1, 2) != 3 {
		t.Error("lattice ops mutated their inputs")
	}
}

func TestSpecRefinementMonotoneAdmission(t *testing.T) {
	// Property: if spec A refines spec B, every schedule B admits, A
	// admits (the offline face of protocol monotonicity).
	inst := paperfig.Figure1()
	coarse := core.NewSpec(inst.Set) // absolute
	fine := inst.Spec.Refine(coarse) // = inst.Spec
	if !fine.RefinesOrEquals(coarse) {
		t.Fatal("any spec refines the absolute one")
	}
	for _, name := range inst.Names {
		s := inst.Schedules[name]
		if core.IsRelativelySerializable(s, coarse) && !core.IsRelativelySerializable(s, fine) {
			t.Errorf("%s: coarse admits but fine rejects (monotonicity violated)", name)
		}
	}
}
