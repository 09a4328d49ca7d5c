package paperfig_test

import (
	"strings"
	"testing"

	"relser/internal/core"
	"relser/internal/paperfig"
)

func TestAllFixturesWellFormed(t *testing.T) {
	named := paperfig.All()
	if len(named) != 4 {
		t.Fatalf("expected 4 figures, got %d", len(named))
	}
	wantNames := []string{"fig1", "fig2", "fig3", "fig4"}
	for i, n := range named {
		if n.Name != wantNames[i] {
			t.Errorf("figure %d named %q", i, n.Name)
		}
		if n.Title == "" {
			t.Errorf("%s: empty title", n.Name)
		}
		inst := n.Instance
		if inst.Set == nil || inst.Spec == nil || len(inst.Schedules) == 0 {
			t.Fatalf("%s: incomplete instance", n.Name)
		}
		if len(inst.Names) != len(inst.Schedules) {
			t.Errorf("%s: Names/Schedules mismatch", n.Name)
		}
		for _, name := range inst.Names {
			s := inst.Schedules[name]
			if s == nil {
				t.Fatalf("%s: schedule %q missing", n.Name, name)
			}
			// Every fixture schedule is a valid complete interleaving
			// (round-trip through the parser as a sanity check).
			if _, err := core.ParseSchedule(inst.Set, s.String()); err != nil {
				t.Errorf("%s/%s: %v", n.Name, name, err)
			}
		}
	}
}

func TestLoadInstanceFigures(t *testing.T) {
	for fig := 1; fig <= 4; fig++ {
		inst, err := paperfig.LoadInstance("", fig)
		if err != nil {
			t.Fatalf("fig %d: %v", fig, err)
		}
		if inst.Set.NumTxns() == 0 || len(inst.Schedules) == 0 {
			t.Errorf("fig %d: empty instance", fig)
		}
	}
	for _, fig := range []int{-1, 5, 9} {
		if _, err := paperfig.LoadInstance("", fig); err == nil || !strings.Contains(err.Error(), "out of range 1-4") {
			t.Errorf("figure %d: err = %v, want out of range 1-4", fig, err)
		}
	}
	inst, err := paperfig.LoadInstance("../../examples/specs/fig1.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inst.Spec.String(), paperfig.Figure1().Spec.String(); got != want {
		t.Errorf("fig1.txt spec = %q, want Figure 1's %q", got, want)
	}
	if _, err := paperfig.LoadInstance("/nonexistent/path", 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestFixtureIndependence(t *testing.T) {
	// Each call returns an independent instance: mutating one spec must
	// not leak into the next.
	a := paperfig.Figure1()
	if err := a.Spec.AllowAll(1, 2); err != nil {
		t.Fatal(err)
	}
	b := paperfig.Figure1()
	if b.Spec.NumUnits(1, 2) != 2 {
		t.Error("Figure1 instances share specification state")
	}
}

func TestFigureSchedulesMatchPaperText(t *testing.T) {
	fig1 := paperfig.Figure1()
	want := map[string]string{
		"Sra": "r2[y] r1[x] w1[x] w2[y] r2[x] w1[z] w3[x] w3[y] r1[y] w3[z]",
		"Srs": "r1[x] r2[y] w1[x] w2[y] w3[x] w1[z] w3[y] r2[x] r1[y] w3[z]",
		"S2":  "r1[x] r2[y] w2[y] w1[x] w3[x] r2[x] w1[z] w3[y] r1[y] w3[z]",
	}
	for name, text := range want {
		if got := fig1.Schedules[name].String(); got != text {
			t.Errorf("%s = %q, want the paper's %q", name, got, text)
		}
	}
	fig4 := paperfig.Figure4()
	if got := fig4.Schedules["S"].String(); got != "w4[x] w3[t] w4[t] w1[x] w1[y] w2[z] w2[y] w3[z]" {
		t.Errorf("Figure 4 S = %q", got)
	}
}

// TestFigureSpecsMatchPaperText pins every figure's non-absolute unit
// boxes as the paper draws them, so a SetUnits call that stops cutting
// (e.g. a cut after a transaction's last operation) fails here.
func TestFigureSpecsMatchPaperText(t *testing.T) {
	want := map[string]string{
		"fig1": `Atomicity(T1, T2): [r1[x] w1[x]] [w1[z] r1[y]]
Atomicity(T1, T3): [r1[x] w1[x]] [w1[z]] [r1[y]]
Atomicity(T2, T1): [r2[y]] [w2[y] r2[x]]
Atomicity(T2, T3): [r2[y] w2[y]] [r2[x]]
Atomicity(T3, T1): [w3[x] w3[y]] [w3[z]]
Atomicity(T3, T2): [w3[x] w3[y]] [w3[z]]`,
		"fig2": `Atomicity(T1, T3): [w1[x]] [r1[z]]
Atomicity(T3, T1): [r3[y]] [w3[z]]
Atomicity(T3, T2): [r3[y]] [w3[z]]`,
		"fig3": `Atomicity(T1, T3): [w1[x]] [r1[z]]
Atomicity(T2, T1): [r2[x]] [w2[y]]
Atomicity(T2, T3): [r2[x]] [w2[y]]
Atomicity(T3, T1): [r3[z]] [r3[y]]`,
		"fig4": `Atomicity(T2, T4): [w2[z]] [w2[y]]
Atomicity(T3, T2): [w3[t]] [w3[z]]
Atomicity(T3, T4): [w3[t]] [w3[z]]
Atomicity(T4, T2): [w4[x]] [w4[t]]
Atomicity(T4, T3): [w4[x]] [w4[t]]`,
	}
	for _, n := range paperfig.All() {
		if got := n.Instance.Spec.String(); got != want[n.Name] {
			t.Errorf("%s spec:\n%s\nwant the paper's\n%s", n.Name, got, want[n.Name])
		}
	}
}
