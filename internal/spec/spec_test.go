package spec_test

import (
	"strings"
	"testing"

	"relser/internal/core"
	"relser/internal/paperfig"
	"relser/internal/spec"
)

func threeTxns(t *testing.T) *core.TxnSet {
	t.Helper()
	return core.MustTxnSet(
		core.T(1, core.R("a"), core.W("a")),
		core.T(2, core.R("b"), core.W("b")),
		core.T(3, core.R("c"), core.W("c")),
	)
}

func TestCompatibilitySets(t *testing.T) {
	ts := threeTxns(t)
	sp, err := spec.CompatibilitySets(ts, [][]core.TxnID{{1, 2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	// Same set: fully interleavable both ways.
	if sp.NumUnits(1, 2) != 2 || sp.NumUnits(2, 1) != 2 {
		t.Error("same-set pairs should be fully split")
	}
	// Different sets: absolute.
	if sp.NumUnits(1, 3) != 1 || sp.NumUnits(3, 1) != 1 || sp.NumUnits(3, 2) != 1 {
		t.Error("cross-set pairs should be absolute")
	}
}

func TestCompatibilitySetsValidation(t *testing.T) {
	ts := threeTxns(t)
	cases := []struct {
		name   string
		groups [][]core.TxnID
		want   string
	}{
		{"unknown txn", [][]core.TxnID{{1, 2, 9}, {3}}, "unknown transaction"},
		{"duplicate", [][]core.TxnID{{1, 2}, {2, 3}}, "appears in compatibility sets"},
		{"missing", [][]core.TxnID{{1, 2}}, "in no compatibility set"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := spec.CompatibilitySets(ts, tc.groups)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestCompatibilitySetsSemantics(t *testing.T) {
	// Garcia-Molina semantics: schedules interleaving same-set
	// transactions arbitrarily are relatively atomic; interleaving
	// cross-set transactions is rejected.
	ts := core.MustTxnSet(
		core.T(1, core.R("a"), core.W("a")),
		core.T(2, core.R("b"), core.W("b")),
		core.T(3, core.R("c"), core.W("c")),
	)
	sp, err := spec.CompatibilitySets(ts, [][]core.TxnID{{1, 2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	okSched, err := core.ParseSchedule(ts, "r1[a] r2[b] w1[a] w2[b] r3[c] w3[c]")
	if err != nil {
		t.Fatal(err)
	}
	if ok, v := core.IsRelativelyAtomic(okSched, sp); !ok {
		t.Errorf("same-set interleaving must be relatively atomic: %v", v)
	}
	badSched, err := core.ParseSchedule(ts, "r1[a] r3[c] w1[a] w3[c] r2[b] w2[b]")
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := core.IsRelativelyAtomic(badSched, sp); ok {
		t.Error("cross-set interleaving must violate relative atomicity")
	}
}

// TestBreakpoints: a Farrag-Özsu breakpoint is core.Spec.CutAfter, and
// affects only the named observer pair.
func TestBreakpoints(t *testing.T) {
	ts := threeTxns(t)
	sp := core.NewSpec(ts)
	if err := sp.CutAfter(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if sp.NumUnits(1, 2) != 2 || sp.NumUnits(1, 3) != 1 {
		t.Error("breakpoint should affect only the named pair")
	}
	if err := sp.CutAfter(1, 2, 99); err == nil {
		t.Error("out-of-range breakpoint accepted")
	}
}

func TestMultilevelCompile(t *testing.T) {
	ts := threeTxns(t)
	// Hierarchy: root( team(T1, T2), T3 ). Within the team T1 exposes a
	// breakpoint after its first operation; to outsiders it is atomic.
	m := &spec.Multilevel{
		Set:  ts,
		Root: spec.Group("root", spec.Group("team", spec.Leaf(1), spec.Leaf(2)), spec.Leaf(3)),
		Cuts: map[core.TxnID][][]int{
			1: {0: nil, 1: {1}}, // depth 0 (vs T3): atomic; depth 1 (vs T2): cut at 1
		},
	}
	sp, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumUnits(1, 2) != 2 {
		t.Errorf("NumUnits(1,2) = %d, want 2 (team-level cut)", sp.NumUnits(1, 2))
	}
	if sp.NumUnits(1, 3) != 1 {
		t.Errorf("NumUnits(1,3) = %d, want 1 (atomic to outsiders)", sp.NumUnits(1, 3))
	}
	if sp.NumUnits(2, 1) != 1 || sp.NumUnits(3, 1) != 1 {
		t.Error("unspecified transactions default to atomic")
	}
}

func TestMultilevelNestingViolation(t *testing.T) {
	ts := threeTxns(t)
	m := &spec.Multilevel{
		Set:  ts,
		Root: spec.Group("root", spec.Group("team", spec.Leaf(1), spec.Leaf(2)), spec.Leaf(3)),
		Cuts: map[core.TxnID][][]int{
			// Coarser at deeper level: cut at depth 0 missing from depth 1.
			1: {0: {1}, 1: nil},
		},
	}
	if _, err := m.Compile(); err == nil || !strings.Contains(err.Error(), "nesting violated") {
		t.Errorf("err = %v, want nesting violation", err)
	}
}

func TestMultilevelTreeValidation(t *testing.T) {
	ts := threeTxns(t)
	cases := []struct {
		name string
		m    *spec.Multilevel
		want string
	}{
		{"no root", &spec.Multilevel{Set: ts}, "no root"},
		{"missing txn", &spec.Multilevel{Set: ts, Root: spec.Group("r", spec.Leaf(1), spec.Leaf(2))}, "missing from hierarchy"},
		{"duplicate leaf", &spec.Multilevel{Set: ts, Root: spec.Group("r", spec.Leaf(1), spec.Leaf(1), spec.Leaf(2), spec.Leaf(3))}, "two leaves"},
		{"unknown leaf", &spec.Multilevel{Set: ts, Root: spec.Group("r", spec.Leaf(1), spec.Leaf(2), spec.Leaf(3), spec.Leaf(9))}, "unknown transaction"},
		{"leaf without txn", &spec.Multilevel{Set: ts, Root: spec.Group("r", spec.Group("empty"), spec.Leaf(1), spec.Leaf(2), spec.Leaf(3))}, "leaf without transaction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.m.Compile()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestMultilevelString(t *testing.T) {
	ts := threeTxns(t)
	m := &spec.Multilevel{
		Set:  ts,
		Root: spec.Group("root", spec.Group("team", spec.Leaf(1), spec.Leaf(2)), spec.Leaf(3)),
	}
	out := m.String()
	for _, want := range []string{"root", "team", "T1", "T3"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
}

// TestE11CompatibilitySetsAreMultilevelExpressible: Garcia-Molina's
// model is a special case of Lynch's, which is a special case of
// relative atomicity (§1).
func TestE11CompatibilitySetsAreMultilevelExpressible(t *testing.T) {
	ts := threeTxns(t)
	sp, err := spec.CompatibilitySets(ts, [][]core.TxnID{{1, 2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	ok, m := spec.MultilevelExpressible(sp)
	if !ok {
		t.Fatal("compatibility sets must be multilevel expressible")
	}
	// The found hierarchy must compile back to the same specification.
	back, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != sp.String() {
		t.Errorf("recompiled spec differs:\n%s\nwant:\n%s", back, sp)
	}
}

// TestE11CyclicSpecNotMultilevelExpressible constructs the §4 claim:
// a relative atomicity specification no hierarchy can realize. Each
// transaction is fine-grained to exactly one other in a 3-cycle
// (T1 fine to T2, T2 fine to T3, T3 fine to T1), forcing contradictory
// LCA depths.
func TestE11CyclicSpecNotMultilevelExpressible(t *testing.T) {
	ts := threeTxns(t)
	sp := core.NewSpec(ts)
	for _, pair := range [][2]core.TxnID{{1, 2}, {2, 3}, {3, 1}} {
		if err := sp.AllowAll(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	if ok, m := spec.MultilevelExpressible(sp); ok {
		t.Errorf("cyclic fine-grainedness should not be multilevel expressible; got hierarchy:\n%s", m)
	}
}

// TestE11Figure1NotMultilevelExpressible: the paper's own running
// example (Figure 1) already exceeds Lynch's model — T2 presents
// different atomic units to T1 and T3 even though any 3-leaf hierarchy
// forces at least one transaction to see two others at the same depth
// with incompatible unit structures.
func TestE11Figure1NotMultilevelExpressible(t *testing.T) {
	inst := paperfig.Figure1()
	if ok, m := spec.MultilevelExpressible(inst.Spec); ok {
		t.Errorf("Figure 1's specification should not be multilevel expressible; got:\n%s", m)
	}
}

func TestMultilevelExpressibleAbsolute(t *testing.T) {
	// Absolute atomicity is trivially expressible (flat hierarchy, no
	// cuts).
	ts := threeTxns(t)
	ok, m := spec.MultilevelExpressible(core.NewSpec(ts))
	if !ok {
		t.Fatal("absolute atomicity must be expressible")
	}
	back, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !back.IsAbsolute() {
		t.Error("recompiled hierarchy should be absolute")
	}
}

func TestMultilevelExpressibleFigure4(t *testing.T) {
	// Figure 4's spec: T2, T3, T4 each split relative to the two others
	// of {T2,T3,T4} except symmetric absolutes toward T1... decide and,
	// if expressible, verify the round trip (the answer itself is part
	// of E11's report).
	inst := paperfig.Figure4()
	ok, m := spec.MultilevelExpressible(inst.Spec)
	if ok {
		back, err := m.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if back.String() != inst.Spec.String() {
			t.Errorf("hierarchy found but recompilation differs:\n%s\nwant:\n%s", back, inst.Spec)
		}
	}
}
