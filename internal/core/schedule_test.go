package core_test

import (
	"strings"
	"testing"

	"relser/internal/core"
	"relser/internal/paperfig"
)

func fig1Set(t *testing.T) *core.TxnSet {
	t.Helper()
	return paperfig.Figure1().Set
}

func TestScheduleConstruction(t *testing.T) {
	inst := paperfig.Figure1()
	sra := inst.Schedules["Sra"]
	if sra.Len() != 10 {
		t.Fatalf("Sra length = %d", sra.Len())
	}
	want := "r2[y] r1[x] w1[x] w2[y] r2[x] w1[z] w3[x] w3[y] r1[y] w3[z]"
	if got := sra.String(); got != want {
		t.Errorf("Sra = %q, want %q", got, want)
	}
	// Positions round-trip.
	for pos := 0; pos < sra.Len(); pos++ {
		if sra.Pos(sra.At(pos)) != pos {
			t.Errorf("position round-trip broken at %d", pos)
		}
	}
	if !sra.Precedes(sra.At(0), sra.At(9)) || sra.Precedes(sra.At(9), sra.At(0)) {
		t.Error("Precedes wrong")
	}
}

func TestScheduleValidationErrors(t *testing.T) {
	ts := fig1Set(t)
	cases := []struct {
		name, text, want string
	}{
		{"missing ops", "r1[x] w1[x]", "has 2 operations"},
		{"unknown txn", "r9[x] r1[x] w1[x] w1[z] r1[y] r2[y] w2[y] r2[x] w3[x] w3[y]", "unknown transaction"},
		{"wrong op shape", "w1[x] r1[x] w1[z] r1[y] r2[y] w2[y] r2[x] w3[x] w3[y] w3[z]", "program order expects"},
		{"duplicate op", "r1[x] r1[x] w1[x] w1[z] r2[y] w2[y] r2[x] w3[x] w3[y] w3[z]", "program order expects"},
		{"overlong txn", "r1[x] w1[x] w1[z] r1[y] r1[y] r2[y] w2[y] w3[x] w3[y] w3[z]", "has only 4 operations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := core.ParseSchedule(ts, tc.text)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestSerialSchedule(t *testing.T) {
	ts := fig1Set(t)
	s, err := core.SerialSchedule(ts, 2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := "r2[y] w2[y] r2[x] w3[x] w3[y] w3[z] r1[x] w1[x] w1[z] r1[y]"
	if got := s.String(); got != want {
		t.Errorf("serial = %q, want %q", got, want)
	}
	if !s.IsSerial() {
		t.Error("serial schedule not recognized as serial")
	}
	// Default order is ascending IDs.
	d, err := core.SerialSchedule(ts)
	if err != nil {
		t.Fatal(err)
	}
	if d.At(0).Txn != 1 || d.At(9).Txn != 3 {
		t.Error("default serial order should be ascending IDs")
	}
}

func TestSerialScheduleErrors(t *testing.T) {
	ts := fig1Set(t)
	if _, err := core.SerialSchedule(ts, 1, 2); err == nil {
		t.Error("short order accepted")
	}
	if _, err := core.SerialSchedule(ts, 1, 2, 9); err == nil {
		t.Error("unknown transaction accepted")
	}
	if _, err := core.SerialSchedule(ts, 1, 2, 2); err == nil {
		t.Error("repeated transaction accepted")
	}
}

func TestIsSerial(t *testing.T) {
	inst := paperfig.Figure1()
	if inst.Schedules["Sra"].IsSerial() {
		t.Error("Sra is interleaved, not serial")
	}
	if inst.Schedules["Srs"].IsSerial() {
		t.Error("Srs is interleaved, not serial")
	}
}

func TestConflictPairs(t *testing.T) {
	ts := core.MustTxnSet(
		core.T(1, core.W("x"), core.R("z")),
		core.T(2, core.R("x"), core.W("y")),
	)
	s := core.MustSchedule(ts, mustOps(t, ts, "w1[x] r2[x] w2[y] r1[z]"))
	pairs := s.ConflictPairs()
	if len(pairs) != 1 {
		t.Fatalf("ConflictPairs = %v, want exactly one", pairs)
	}
	if pairs[0].First.String() != "w1[x]" || pairs[0].Second.String() != "r2[x]" {
		t.Errorf("pair = %v -> %v", pairs[0].First, pairs[0].Second)
	}
}

func TestConflictEquivalentPaper(t *testing.T) {
	inst := paperfig.Figure1()
	srs, s2 := inst.Schedules["Srs"], inst.Schedules["S2"]
	// §2: "S2 is relatively serializable since it is conflict
	// equivalent to the relatively serial schedule Srs".
	if !core.ConflictEquivalent(s2, srs) {
		t.Error("paper claims S2 ≡c Srs")
	}
	if !core.ConflictEquivalent(srs, s2) {
		t.Error("conflict equivalence must be symmetric")
	}
	sra := inst.Schedules["Sra"]
	// Sra orders r2[x] before w3[x]; Srs orders them the other way.
	if core.ConflictEquivalent(sra, srs) {
		t.Error("Sra and Srs order the (r2[x], w3[x]) conflict differently; must not be equivalent")
	}
	if !core.ConflictEquivalent(sra, sra) {
		t.Error("a schedule must be conflict equivalent to itself")
	}
}

func TestConflictEquivalentAcrossSets(t *testing.T) {
	a := paperfig.Figure1().Schedules["Srs"]
	b := paperfig.Figure1().Schedules["S2"] // distinct TxnSet pointer, same universe
	if !core.ConflictEquivalent(a, b) {
		t.Error("structurally identical sets should compare equal")
	}
	c := paperfig.Figure2().Schedules["S1"]
	if core.ConflictEquivalent(a, c) {
		t.Error("schedules over different universes can never be equivalent")
	}
}

func mustOps(t *testing.T, ts *core.TxnSet, text string) []core.Op {
	t.Helper()
	ops, err := core.ParseOps(text)
	if err != nil {
		t.Fatal(err)
	}
	_ = ts
	return ops
}
