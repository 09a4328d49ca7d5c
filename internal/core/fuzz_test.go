package core_test

// Fuzz targets for the parsers: no input may crash them, and every
// accepted input must round-trip through the formatter. `go test`
// exercises the seed corpus; `go test -fuzz=FuzzParseInstance` explores
// further.

import (
	"os"
	"strings"
	"testing"

	"relser/internal/core"
)

func FuzzParseOp(f *testing.F) {
	for _, seed := range []string{
		"r1[x]", "w12[acct_7]", "R3[Z]", "", "r", "r1[", "r1[]", "w0[x]",
		"r1[x]garbage", "r999999999999999999999[x]", "r1[\x00]",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		op, err := core.ParseOp(raw)
		if err != nil {
			return
		}
		back, err := core.ParseOp(op.String())
		if err != nil {
			t.Fatalf("accepted %q as %v but String() does not reparse: %v", raw, op, err)
		}
		if back != op {
			t.Fatalf("round trip changed %v to %v", op, back)
		}
	})
}

func FuzzParseSchedule(f *testing.F) {
	f.Add("r1[x] w1[x] r2[y]")
	f.Add("r1[x] r1[x]")
	f.Add("w2[y] r1[x] w1[x]")
	f.Add("")
	f.Fuzz(func(t *testing.T, raw string) {
		ts := core.MustTxnSet(
			core.T(1, core.R("x"), core.W("x")),
			core.T(2, core.R("y")),
		)
		s, err := core.ParseSchedule(ts, raw)
		if err != nil {
			return
		}
		// Accepted schedules are complete and ordered.
		if s.Len() != ts.NumOps() {
			t.Fatalf("accepted incomplete schedule %q", raw)
		}
		if _, err := core.ParseSchedule(ts, s.String()); err != nil {
			t.Fatalf("schedule %q does not round trip: %v", s, err)
		}
	})
}

func FuzzParseInstance(f *testing.F) {
	f.Add("txn 1: r[x] w[x]\ntxn 2: w[x]\natomicity 1 2: [r[x]] [w[x]]\nschedule S: r1[x] w2[x] w1[x]\n")
	f.Add("txn 1: r[x]\nallowall 1 1\n")
	f.Add("# comment only\n")
	f.Add("txn 1: r[x]\nschedule S: r1[x]\nschedule S: r1[x]\n")
	f.Add("atomicity 1 2: [r[x]]\n")
	f.Add("txn 1: r[x]\natomicity 1 2: [r[x]\n")
	f.Fuzz(func(t *testing.T, raw string) {
		inst, err := core.ParseInstance(strings.NewReader(raw))
		if err != nil {
			return
		}
		// Accepted instances format and reparse to the same content.
		text := core.FormatInstance(inst)
		back, err := core.ParseInstance(strings.NewReader(text))
		if err != nil {
			t.Fatalf("formatted instance does not reparse: %v\n%s", err, text)
		}
		if back.Set.String() != inst.Set.String() || back.Spec.String() != inst.Spec.String() {
			t.Fatalf("round trip changed instance:\n%s\nvs\n%s", core.FormatInstance(back), text)
		}
		// Classification never panics on accepted instances.
		for _, name := range inst.Names {
			s := inst.Schedules[name]
			core.IsRelativelySerializable(s, inst.Spec)
			core.IsRelativelyAtomic(s, inst.Spec)
		}
	})
}

// FuzzCertGraphMatchesDefinition3: on every accepted instance the
// dominance-reduced graph and Definition 3's graph (rebuilt from
// RSG.Arcs) agree on acyclicity, under transitive and under direct
// depends-on.
func FuzzCertGraphMatchesDefinition3(f *testing.F) {
	for _, file := range corpusFiles(f) {
		raw, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	// A schedule naming a transaction more often than it has operations:
	// NewSchedule must reject it rather than index past the program.
	f.Add("txn 1:r[x] w[0]\ntxn 2:r[x] w[0]\nschedule 0:r1[x] r2[x] w1[0] w1[0]")
	f.Fuzz(func(t *testing.T, raw string) {
		inst, err := core.ParseInstance(strings.NewReader(raw))
		if err != nil {
			return
		}
		for _, name := range inst.Names {
			s := inst.Schedules[name]
			for _, dep := range []*core.Depends{core.ComputeDepends(s), core.ComputeDirectDepends(s)} {
				rsg := core.BuildRSGUnder(s, inst.Spec, dep)
				if want := !definition3Graph(rsg).HasCycle(); rsg.Acyclic() != want {
					t.Fatalf("%s (direct=%v): Acyclic() = %v, Definition 3's graph acyclic = %v", name, dep.IsDirect(), rsg.Acyclic(), want)
				}
			}
		}
	})
}
