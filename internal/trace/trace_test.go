package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"relser/internal/core"
)

func sampleEvents() []Event {
	return []Event{
		{TS: 10, Kind: KindBegin, Protocol: "rsgt", Instance: 1, Txn: 1, Program: "w1[x] w1[y]"},
		{TS: 15, Kind: KindBegin, Protocol: "rsgt", Instance: 2, Txn: 2, Program: "r2[x]"},
		{TS: 20, Kind: KindGrant, Protocol: "rsgt", Instance: 1, Txn: 1, Seq: 0, Op: "w1[x]", Order: 1, Tick: 1},
		{TS: 30, Kind: KindBlock, Protocol: "rsgt", Instance: 2, Txn: 2, Seq: 0, Op: "r2[x]", Blockers: []int64{1}},
		{TS: 40, Kind: KindWALAppend, Instance: 1, Object: "x", Value: 7, Version: 3},
		{TS: 50, Kind: KindCycleReject, Protocol: "rsgt", Instance: 2, Txn: 2, Seq: 0, Op: "r2[x]",
			Reason: "admission closes an RSG cycle",
			Cycle: &Cycle{
				Nodes: []CycleNode{{Instance: 1, Txn: 1, Seq: 0, Op: "w1[x]"}, {Instance: 2, Txn: 2, Seq: 0, Op: "r2[x]"}},
				Arcs:  []CycleArc{{From: 0, To: 1, Kind: "D,F"}, {From: 1, To: 0, Kind: "B"}},
			}},
		{TS: 60, Kind: KindTxnAbort, Instance: 2, Txn: 2, Reason: "protocol"},
		{TS: 70, Kind: KindCommit, Instance: 1, Txn: 1},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(events) {
		t.Errorf("JSONL has %d lines, want %d", got, len(events))
	}
	var back []Event
	for dec := json.NewDecoder(&buf); dec.More(); {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("decode: %v", err)
		}
		back = append(back, ev)
	}
	if !reflect.DeepEqual(events, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, events)
	}
}

func TestDisabledTracer(t *testing.T) {
	var nilTracer *Tracer
	if nilTracer.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	nilTracer.Emit(Event{Kind: KindGrant}) // must not panic
	nilTracer.EmitDot("x", "digraph x {}")

	disabled := New(nil)
	if disabled.Enabled() {
		t.Error("tracer over nil sink reports enabled")
	}
	disabled.Emit(Event{Kind: KindGrant})
}

func TestTracerStampsAndBuffers(t *testing.T) {
	buf := NewBuffer()
	tr := New(buf)
	if !tr.Enabled() {
		t.Fatal("tracer with sink reports disabled")
	}
	tr.Emit(Event{Kind: KindGrant, Op: "r1[x]"})
	tr.Emit(Event{TS: 12345, Kind: KindCommit})
	events := buf.Events()
	if len(events) != 2 {
		t.Fatalf("buffered %d events, want 2", len(events))
	}
	if events[0].TS <= 0 {
		t.Errorf("first event not timestamped: %+v", events[0])
	}
	if events[1].TS != 12345 {
		t.Errorf("explicit TS overwritten: %d", events[1].TS)
	}
	counts := CountKinds(events)
	if counts[KindGrant] != 1 || counts[KindCommit] != 1 {
		t.Errorf("CountKinds = %v", counts)
	}
}

func TestEmitDotNamesSequentially(t *testing.T) {
	tr := New(NewBuffer())
	var names []string
	tr.DotSink = func(name, dot string) { names = append(names, name) }
	tr.EmitDot("cyclereject", "digraph a {}")
	tr.EmitDot("cyclereject", "digraph b {}")
	if len(names) != 2 || names[0] != "cyclereject-1" || names[1] != "cyclereject-2" {
		t.Errorf("dot names = %v", names)
	}
}

func TestCycleString(t *testing.T) {
	c := &Cycle{
		Nodes: []CycleNode{{Instance: 1, Txn: 1, Seq: 0, Op: "w1[x]"}, {Instance: 2, Txn: 2, Seq: 1, Op: "r2[x]"}},
		Arcs:  []CycleArc{{From: 0, To: 1, Kind: "D,F"}, {From: 1, To: 0, Kind: "B"}},
	}
	s := c.String()
	for _, want := range []string{"T1.0 w1[x]", "-D,F->", "T2.1 r2[x]", "-B->"} {
		if !strings.Contains(s, want) {
			t.Errorf("Cycle.String() = %q missing %q", s, want)
		}
	}
	var empty *Cycle
	if empty.String() != "(empty cycle)" {
		t.Errorf("nil cycle String = %q", empty.String())
	}
}

func TestWriteChrome(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, sampleEvents()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	// Two begins open two lanes; both close (commit + abort); the rest
	// are instants.
	if phases["B"] != 2 || phases["E"] != 2 {
		t.Errorf("span phases = %v, want 2 B and 2 E", phases)
	}
	if phases["i"] == 0 {
		t.Errorf("no instant events: %v", phases)
	}
}

// TestWriteChromeClosesOpenLanesInOrder renders a canceled run's trace
// (lanes begun, never finished) repeatedly: the closing "E" events must
// come in ascending instance order and the bytes must not change.
func TestWriteChromeClosesOpenLanesInOrder(t *testing.T) {
	var events []Event
	for inst := int64(12); inst >= 1; inst-- {
		events = append(events, Event{TS: 13 - inst, Kind: KindBegin, Instance: inst, Txn: int(inst)})
	}
	var first []byte
	for run := 0; run < 20; run++ {
		var buf bytes.Buffer
		if err := WriteChrome(&buf, events); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		if run == 0 {
			first = buf.Bytes()
			var doc struct {
				TraceEvents []struct {
					Phase string `json:"ph"`
					TID   int64  `json:"tid"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(first, &doc); err != nil {
				t.Fatalf("output is not JSON: %v", err)
			}
			var closed []int64
			for _, ev := range doc.TraceEvents {
				if ev.Phase == "E" {
					closed = append(closed, ev.TID)
				}
			}
			if len(closed) != 12 || !slices.IsSorted(closed) {
				t.Fatalf("open lanes closed as %v, want instances 1..12 ascending", closed)
			}
			continue
		}
		if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("run %d rendered different bytes for the same events", run)
		}
	}
}

// verifyFixture is the deterministic two-writer scenario whose fourth
// operation closes an RSG cycle under absolute atomicity:
// T1 = w1[x] w1[y], T2 = w2[y] w2[x]; after w1[x] w2[y] w2[x] the
// request w1[y] adds D-arc w2[y]->w1[y], whose pull-backward arc
// w2[y]->w1[x] closes against the earlier B-arc w1[x]->w2[y].
func verifyFixture(cycle *Cycle) []Event {
	return []Event{
		{TS: 1, Kind: KindBegin, Instance: 1, Txn: 1, Program: "w1[x] w1[y]"},
		{TS: 2, Kind: KindBegin, Instance: 2, Txn: 2, Program: "w2[y] w2[x]"},
		{TS: 3, Kind: KindGrant, Instance: 1, Txn: 1, Seq: 0, Op: "w1[x]"},
		{TS: 4, Kind: KindGrant, Instance: 2, Txn: 2, Seq: 0, Op: "w2[y]"},
		{TS: 5, Kind: KindGrant, Instance: 2, Txn: 2, Seq: 1, Op: "w2[x]"},
		{TS: 6, Kind: KindCycleReject, Instance: 1, Txn: 1, Seq: 1, Op: "w1[y]", Cycle: cycle},
	}
}

func absoluteCuts(_, _ *core.Transaction) []int { return nil }

func TestVerifyCyclesAccepts(t *testing.T) {
	cycle := &Cycle{
		Nodes: []CycleNode{{Instance: 1, Txn: 1, Seq: 0, Op: "w1[x]"}, {Instance: 2, Txn: 2, Seq: 0, Op: "w2[y]"}},
		Arcs:  []CycleArc{{From: 0, To: 1, Kind: "B"}, {From: 1, To: 0, Kind: "B"}},
	}
	n, err := VerifyCycles(verifyFixture(cycle), absoluteCuts)
	if err != nil {
		t.Fatalf("VerifyCycles: %v", err)
	}
	if n != 1 {
		t.Errorf("checked %d cycles, want 1", n)
	}
}

func TestVerifyCyclesRejectsWrongArcKind(t *testing.T) {
	// Claiming a D-arc w1[x]->w2[y] is wrong: the operations do not
	// conflict, so offline only the pull-backward (B) arc exists.
	cycle := &Cycle{
		Nodes: []CycleNode{{Instance: 1, Txn: 1, Seq: 0, Op: "w1[x]"}, {Instance: 2, Txn: 2, Seq: 0, Op: "w2[y]"}},
		Arcs:  []CycleArc{{From: 0, To: 1, Kind: "D"}, {From: 1, To: 0, Kind: "B"}},
	}
	_, err := VerifyCycles(verifyFixture(cycle), absoluteCuts)
	if err == nil || !strings.Contains(err.Error(), "not present in offline RSG") {
		t.Errorf("want offline-arc mismatch, got %v", err)
	}
}

func TestVerifyCyclesRejectsOpenChain(t *testing.T) {
	cycle := &Cycle{
		Nodes: []CycleNode{{Instance: 1, Txn: 1, Seq: 0, Op: "w1[x]"}, {Instance: 2, Txn: 2, Seq: 0, Op: "w2[y]"}},
		Arcs:  []CycleArc{{From: 0, To: 1, Kind: "B"}},
	}
	_, err := VerifyCycles(verifyFixture(cycle), absoluteCuts)
	if err == nil || !strings.Contains(err.Error(), "not closed") {
		t.Errorf("want open-chain error, got %v", err)
	}
}

func TestVerifyCyclesRejectsMissingBegin(t *testing.T) {
	cycle := &Cycle{
		Nodes: []CycleNode{{Instance: 9, Txn: 9, Seq: 0, Op: "w9[q]"}, {Instance: 2, Txn: 2, Seq: 0, Op: "w2[y]"}},
		Arcs:  []CycleArc{{From: 0, To: 1, Kind: "B"}, {From: 1, To: 0, Kind: "B"}},
	}
	_, err := VerifyCycles(verifyFixture(cycle), absoluteCuts)
	if err == nil || !strings.Contains(err.Error(), "no begin event") {
		t.Errorf("want missing-begin error, got %v", err)
	}
}

// TestKindWireNames pins the string of every registered kind: JSONL
// files, the SSE stream and VerifyCycles read these names, so a typo at
// a definition is a format break, not a rename.
func TestKindWireNames(t *testing.T) {
	want := []string{"begin", "grant", "block", "abort", "cycle-reject",
		"conflict-cycle", "deadlock", "lock-wait", "ts-reject", "donate",
		"wake", "commit", "txn-abort", "fault", "shed", "wedge", "cancel",
		"wal-append", "wal-rotate", "wal-group-commit", "store-read",
		"store-write"}
	got := Kinds()
	if len(got) != len(want) {
		t.Fatalf("%d registered kinds, want %d: %v", len(got), len(want), got)
	}
	for i, k := range got {
		if string(k) != want[i] {
			t.Errorf("kind %d is %q on the wire, want %q", i, k, want[i])
		}
	}
}
