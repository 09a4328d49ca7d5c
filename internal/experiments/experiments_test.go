package experiments_test

import (
	"strings"
	"testing"

	"relser/internal/experiments"
)

func TestIDsOrdered(t *testing.T) {
	ids := experiments.IDs()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E16", "E19"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := experiments.Run("E99", experiments.Options{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTitles(t *testing.T) {
	for _, id := range experiments.IDs() {
		if experiments.Title(id) == "" {
			t.Errorf("%s has no title", id)
		}
	}
}

// TestAllExperimentsPassQuick runs the full suite at quick sizes; every
// mechanically checked paper claim must hold.
func TestAllExperimentsPassQuick(t *testing.T) {
	for _, id := range experiments.IDs() {
		rep, err := experiments.Run(id, experiments.Options{Quick: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rep.Claims {
			if !c.Pass {
				t.Errorf("%s: claim failed: %s", rep.ID, c.Text)
			}
		}
		out := rep.String()
		if !strings.Contains(out, rep.ID) || !strings.Contains(out, "Claims:") {
			t.Errorf("%s: report rendering incomplete:\n%s", rep.ID, out)
		}
	}
}

// TestFigureExperimentsFullSize runs the exact figure reproductions at
// full size (they are cheap); these are the paper's own tables.
func TestFigureExperimentsFullSize(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E11", "E12", "E14"} {
		rep, err := experiments.Run(id, experiments.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !rep.Pass() {
			for _, c := range rep.Claims {
				if !c.Pass {
					t.Errorf("%s: %s", id, c.Text)
				}
			}
		}
	}
}

func TestReportPassAndClaims(t *testing.T) {
	rep := &experiments.Report{ID: "X", Title: "t"}
	rep.AddClaim(true, "ok %d", 1)
	if !rep.Pass() {
		t.Error("all-pass report should pass")
	}
	rep.AddClaim(false, "bad")
	if rep.Pass() {
		t.Error("failed claim should fail the report")
	}
	out := rep.String()
	if !strings.Contains(out, "[PASS] ok 1") || !strings.Contains(out, "[FAIL] bad") {
		t.Errorf("rendering:\n%s", out)
	}
}

func TestDeterministicReports(t *testing.T) {
	// Same seed, same report text (wall-clock timing columns vary, so
	// compare a timing-free experiment).
	a, err := experiments.Run("E5", experiments.Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.Run("E5", experiments.Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("E5 report not deterministic")
	}
}
