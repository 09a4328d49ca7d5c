package infer_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relser/internal/analysis/infer"
	"relser/internal/analysis/load"
	"relser/internal/core"
)

func moduleDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", dir, err)
	}
	return dir
}

// TestInferPartitionedGolden asserts the spec synthesized from
// examples/partitioned equals the certified spec its instance file
// declares: static spec synthesis (rsvet -infer), end to end.
func TestInferPartitionedGolden(t *testing.T) {
	root := moduleDir(t)
	pkg, err := load.Dir(root, filepath.Join(root, "examples/partitioned"))
	if err != nil {
		t.Fatalf("loading example: %v", err)
	}
	res, err := infer.Package(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Notes) != 0 {
		t.Fatalf("unexpected extraction notes: %v", res.Notes)
	}
	if !res.Report.Certified {
		t.Fatalf("inferred spec not certified; findings: %v", res.Report.Findings)
	}

	f, err := os.Open(filepath.Join(root, "examples/specs/partitioned.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inst, err := core.ParseInstance(f)
	if err != nil {
		t.Fatal(err)
	}
	want := inst.Spec.String()
	got := res.Spec.String()
	if got != want {
		t.Errorf("inferred spec differs from certified spec:\n--- inferred ---\n%s\n--- certified ---\n%s", got, want)
	}
}

// TestInstanceTextRoundTrips feeds the emitted text back through the
// instance parser and checks the spec survives.
func TestInstanceTextRoundTrips(t *testing.T) {
	root := moduleDir(t)
	pkg, err := load.Dir(root, filepath.Join(root, "examples/partitioned"))
	if err != nil {
		t.Fatalf("loading example: %v", err)
	}
	res, err := infer.Package(pkg)
	if err != nil {
		t.Fatal(err)
	}
	text := res.InstanceText()
	inst, err := core.ParseInstance(strings.NewReader(text))
	if err != nil {
		t.Fatalf("emitted text does not re-parse: %v\n%s", err, text)
	}
	if got, want := inst.Spec.String(), res.Spec.String(); got != want {
		t.Errorf("round-tripped spec differs:\n--- parsed ---\n%s\n--- synthesized ---\n%s", got, want)
	}
}

// TestInferWitness asserts the helper-bundled workload fails
// certification with a concrete cycle witness, and that helper
// argument substitution recovered the real keys.
func TestInferWitness(t *testing.T) {
	root := moduleDir(t)
	pkg, err := load.Dir(root, filepath.Join(root, "internal/analysis/testdata/src/infer"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	res, err := infer.Package(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Notes) != 0 {
		t.Fatalf("unexpected extraction notes: %v", res.Notes)
	}
	if len(res.Txns) != 3 {
		t.Fatalf("want 3 transactions, got %d", len(res.Txns))
	}
	t1 := res.Txns[0]
	if len(t1.Groups) != 1 || len(t1.Groups[0]) != 4 {
		t.Fatalf("T1 should be one helper-bundled step of 4 ops, got %v", t1.Groups)
	}
	if t1.Groups[0][0].Object != "acct_a" || t1.Groups[0][2].Object != "acct_b" {
		t.Fatalf("helper parameter substitution lost keys: %v", t1.Groups[0])
	}
	if res.Report.Certified {
		t.Fatal("helper-bundled conflicting transfer must not certify")
	}
	witnessed := false
	for _, f := range res.Report.Findings {
		if strings.Contains(f.Message, "potential cycle") {
			witnessed = true
		}
	}
	if !witnessed {
		t.Errorf("no cycle witness in findings: %v", res.Report.Findings)
	}
}
