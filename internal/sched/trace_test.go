package sched_test

import (
	"strings"
	"testing"

	"relser/internal/core"
	"relser/internal/sched"
	"relser/internal/trace"
)

func TestProtocolRegistry(t *testing.T) {
	names := sched.ProtocolNames()
	want := []string{"altruistic", "nocc", "ral", "rsgt", "s2pl", "sgt", "to"}
	if len(names) != len(want) {
		t.Fatalf("ProtocolNames() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ProtocolNames() = %v, want %v", names, want)
		}
	}
	for _, name := range names {
		p, err := sched.NewProtocol(name, sched.AbsoluteOracle{})
		if err != nil {
			t.Fatalf("NewProtocol(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewProtocol(%q).Name() = %q", name, p.Name())
		}
	}
	_, err := sched.NewProtocol("nope", sched.AbsoluteOracle{})
	if err == nil {
		t.Fatal("unknown protocol accepted")
	}
	for _, name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid protocol %q", err, name)
		}
	}
}

// tracedReplay drives a protocol exactly like the runtime does while
// emitting the driver-side begin/grant events into the same buffer the
// protocol's explanations land in, so the trace is replay-verifiable.
type tracedReplay struct {
	t   *testing.T
	p   sched.Protocol
	tr  *trace.Tracer
	buf *trace.Buffer
}

func newTracedReplay(t *testing.T, p sched.Protocol) *tracedReplay {
	buf := trace.NewBuffer()
	tr := trace.New(buf)
	sched.Attach(p, tr)
	return &tracedReplay{t: t, p: p, tr: tr, buf: buf}
}

func (r *tracedReplay) begin(instance int64, prog *core.Transaction) {
	r.p.Begin(instance, prog)
	r.tr.Emit(trace.Event{
		Kind: trace.KindBegin, Protocol: r.p.Name(),
		Instance: instance, Txn: int(prog.ID), Program: prog.String(),
	})
}

func (r *tracedReplay) request(instance int64, prog *core.Transaction, seq int) sched.Decision {
	r.t.Helper()
	req := sched.OpRequest{Instance: instance, Program: prog, Seq: seq, Op: prog.Op(seq)}
	d := r.p.Request(req)
	if d == sched.Grant {
		r.tr.Emit(trace.Event{
			Kind: trace.KindGrant, Protocol: r.p.Name(),
			Instance: instance, Txn: int(prog.ID), Seq: seq, Op: prog.Op(seq).String(),
		})
	}
	return d
}

// TestRSGTCycleRejectExplanation drives the deterministic two-writer
// scenario into a rejection and checks the emitted explanation names a
// concrete RSG cycle that replay-verifies against the offline theory.
// T1 ends with a unit of its own relative to T2 (w1[x] w1[y] are one
// unit, r1[z] another), so the spec has a cut and RSGT keeps one
// vertex per operation; the cycle runs through the first unit.
func TestRSGTCycleRejectExplanation(t *testing.T) {
	t1 := core.T(1, core.W("x"), core.W("y"), core.R("z"))
	t2 := core.T(2, core.W("y"), core.W("x"))
	cuts := func(a, _ *core.Transaction) []int {
		if a.ID == 1 {
			return []int{2}
		}
		return nil
	}
	r := newTracedReplay(t, sched.NewRSGT(sched.OracleFunc(cuts)))
	var dots []string
	r.tr.DotSink = func(name, dot string) { dots = append(dots, dot) }

	r.begin(1, t1)
	r.begin(2, t2)
	if d := r.request(1, t1, 0); d != sched.Grant {
		t.Fatalf("w1[x]: %v", d)
	}
	if d := r.request(2, t2, 0); d != sched.Grant {
		t.Fatalf("w2[y]: %v", d)
	}
	if d := r.request(2, t2, 1); d != sched.Grant {
		t.Fatalf("w2[x]: %v", d)
	}
	if d := r.request(1, t1, 1); d != sched.Abort {
		t.Fatalf("w1[y]: got %v, want Abort", d)
	}

	events := r.buf.Events()
	var reject *trace.Event
	for i := range events {
		if events[i].Kind == trace.KindCycleReject {
			reject = &events[i]
		}
	}
	if reject == nil {
		t.Fatal("no cycle-reject event emitted")
	}
	if reject.Cycle == nil || len(reject.Cycle.Arcs) < 2 {
		t.Fatalf("cycle-reject carries no usable cycle: %+v", reject)
	}
	if reject.Op != "w1[y]" || reject.Instance != 1 {
		t.Errorf("reject identifies %s of instance %d, want w1[y] of 1", reject.Op, reject.Instance)
	}
	for _, a := range reject.Cycle.Arcs {
		for _, letter := range strings.Split(a.Kind, ",") {
			switch letter {
			case "I", "D", "F", "B":
			default:
				t.Errorf("cycle arc has non-RSG kind %q", a.Kind)
			}
		}
	}
	if len(dots) != 1 || !strings.Contains(dots[0], "digraph") {
		t.Errorf("expected one DOT snapshot at the rejection point, got %d", len(dots))
	}

	checked, err := trace.VerifyCycles(events, cuts)
	if err != nil {
		t.Fatalf("replay verification failed: %v", err)
	}
	if checked != 1 {
		t.Errorf("verified %d cycle-rejects, want 1", checked)
	}
}

// TestRSGTAbsoluteExplainsLikeSGT: under AbsoluteOracle RSGT certifies
// one vertex per instance (Lemma 1), so the two-writer rejection is
// explained as SGT explains it: a conflict-cycle event whose cycle
// names instances, not operations, and no cycle-reject.
func TestRSGTAbsoluteExplainsLikeSGT(t *testing.T) {
	t1 := core.T(1, core.W("x"), core.W("y"))
	t2 := core.T(2, core.W("y"), core.W("x"))
	for _, p := range []sched.Protocol{sched.NewRSGT(sched.AbsoluteOracle{}), sched.NewSGT()} {
		r := newTracedReplay(t, p)
		r.begin(1, t1)
		r.begin(2, t2)
		for _, step := range []struct {
			inst int64
			prog *core.Transaction
			seq  int
		}{{1, t1, 0}, {2, t2, 0}, {2, t2, 1}} {
			if d := r.request(step.inst, step.prog, step.seq); d != sched.Grant {
				t.Fatalf("%s: %s: %v", p.Name(), step.prog.Op(step.seq), d)
			}
		}
		if d := r.request(1, t1, 1); d != sched.Abort {
			t.Fatalf("%s: w1[y]: got %v, want Abort", p.Name(), d)
		}
		var got []trace.Event
		for _, ev := range r.buf.Events() {
			if ev.Kind == trace.KindCycleReject || ev.Kind == trace.KindConflictCycle {
				got = append(got, ev)
			}
		}
		if len(got) != 1 || got[0].Kind != trace.KindConflictCycle {
			t.Fatalf("%s: explanations %+v, want one conflict-cycle", p.Name(), got)
		}
		ev := got[0]
		if ev.Protocol != p.Name() || ev.Instance != 1 || ev.Op != "w1[y]" {
			t.Errorf("%s: event names %s, instance %d, %s; want itself, 1, w1[y]", p.Name(), ev.Protocol, ev.Instance, ev.Op)
		}
		if ev.Cycle == nil || len(ev.Cycle.Nodes) != 2 {
			t.Fatalf("%s: cycle %+v, want the two instances", p.Name(), ev.Cycle)
		}
		for _, n := range ev.Cycle.Nodes {
			if n.Seq != -1 {
				t.Errorf("%s: cycle node %+v names an operation, want a transaction", p.Name(), n)
			}
		}
	}
}

// TestRSGTCycleRejectWithUnits exercises a rejection under a
// non-absolute specification: T1's first unit completes harmlessly,
// and the cycle's F-arcs target the interior unit [w1[x] w1[y]], so
// replay verification depends on the cuts actually being honored.
func TestRSGTCycleRejectWithUnits(t *testing.T) {
	// T1 = [w1[a]] [w1[x] w1[y]] relative to everyone; T2 single-unit.
	t1 := core.T(1, core.W("a"), core.W("x"), core.W("y"))
	t2 := core.T(2, core.W("y"), core.W("x"))
	cuts := func(a, _ *core.Transaction) []int {
		if a.ID == 1 {
			return []int{1}
		}
		return nil
	}
	r := newTracedReplay(t, sched.NewRSGT(sched.OracleFunc(cuts)))
	r.begin(1, t1)
	r.begin(2, t2)
	if d := r.request(1, t1, 0); d != sched.Grant {
		t.Fatalf("w1[a]: %v", d)
	}
	if d := r.request(1, t1, 1); d != sched.Grant {
		t.Fatalf("w1[x]: %v", d)
	}
	if d := r.request(2, t2, 0); d != sched.Grant {
		t.Fatalf("w2[y]: %v", d)
	}
	if d := r.request(2, t2, 1); d != sched.Grant {
		t.Fatalf("w2[x]: %v", d)
	}
	// T2 now sits astride T1's interior unit: w2[y] must precede w1[y]
	// while w2[x] follows w1[x]. Admitting w1[y] closes the F-arc cycle
	// w1[y] -> w2[x] -> w1[y].
	d := r.request(1, t1, 2)
	if d != sched.Abort {
		t.Fatalf("w1[y]: got %v, want Abort", d)
	}
	checked, err := trace.VerifyCycles(r.buf.Events(), cuts)
	if err != nil {
		t.Fatalf("replay verification failed: %v", err)
	}
	if checked != 1 {
		t.Errorf("verified %d cycle-rejects, want 1", checked)
	}
}

// TestRALCycleRejectVerifies checks that RAL's embedded certifier
// emits verifiable explanations too (under protocol name "rsgt").
// With two transactions RAL's wake-entry guard converts would-be
// cycles into blocks, so the scenario needs three: per-observer lock
// release admits a dependency chain T1 -> T2 -> T3 whose closing
// dependency T3 -> T1 is legal lock-wise but cycles the RSG because
// T1 is atomic relative to T3.
func TestRALCycleRejectVerifies(t *testing.T) {
	t1 := core.T(1, core.W("x"), core.W("z"), core.W("p"))
	t2 := core.T(2, core.W("x"), core.W("y"), core.W("q"))
	t3 := core.T(3, core.W("y"), core.W("z"), core.W("r"))
	// Every op its own unit — fully relaxed atomicity — except T1,
	// which stays atomic relative to T3.
	cuts := func(a, b *core.Transaction) []int {
		if a.ID == 1 && b.ID == 3 {
			return nil
		}
		out := make([]int, 0, a.Len()-1)
		for p := 1; p < a.Len(); p++ {
			out = append(out, p)
		}
		return out
	}
	r := newTracedReplay(t, sched.NewRAL(sched.OracleFunc(cuts)))
	r.begin(1, t1)
	r.begin(2, t2)
	r.begin(3, t3)
	if d := r.request(1, t1, 0); d != sched.Grant {
		t.Fatalf("w1[x]: %v", d)
	}
	if d := r.request(2, t2, 0); d != sched.Grant {
		t.Fatalf("w2[x]: %v", d)
	}
	if d := r.request(2, t2, 1); d != sched.Grant {
		t.Fatalf("w2[y]: %v", d)
	}
	if d := r.request(3, t3, 0); d != sched.Grant {
		t.Fatalf("w3[y]: %v", d)
	}
	if d := r.request(3, t3, 1); d != sched.Grant {
		t.Fatalf("w3[z]: %v", d)
	}
	if d := r.request(1, t1, 1); d != sched.Abort {
		t.Fatalf("w1[z]: got %v, want Abort", d)
	}
	events := r.buf.Events()
	var sawReject bool
	for _, ev := range events {
		if ev.Kind == trace.KindCycleReject {
			sawReject = true
			if ev.Protocol != "rsgt" {
				t.Errorf("RAL cycle-reject attributed to %q, want rsgt", ev.Protocol)
			}
		}
	}
	if !sawReject {
		t.Fatal("no cycle-reject from RAL's certifier")
	}
	if _, err := trace.VerifyCycles(events, cuts); err != nil {
		t.Fatalf("replay verification failed: %v", err)
	}
}

// TestS2PLDeadlockExplanation drives the classic two-transaction
// deadlock and checks the waits-for cycle event.
func TestS2PLDeadlockExplanation(t *testing.T) {
	t1 := core.T(1, core.W("x"), core.W("y"))
	t2 := core.T(2, core.W("y"), core.W("x"))
	r := newTracedReplay(t, sched.NewS2PL())
	r.begin(1, t1)
	r.begin(2, t2)
	if d := r.request(1, t1, 0); d != sched.Grant {
		t.Fatalf("w1[x]: %v", d)
	}
	if d := r.request(2, t2, 0); d != sched.Grant {
		t.Fatalf("w2[y]: %v", d)
	}
	if d := r.request(1, t1, 1); d != sched.Block {
		t.Fatalf("w1[y]: got %v, want Block", d)
	}
	if d := r.request(2, t2, 1); d != sched.Abort {
		t.Fatalf("w2[x]: got %v, want Abort (deadlock)", d)
	}
	events := r.buf.Events()
	counts := trace.CountKinds(events)
	if counts[trace.KindLockWait] != 1 {
		t.Errorf("lock-wait events = %d, want 1", counts[trace.KindLockWait])
	}
	var dl *trace.Event
	for i := range events {
		if events[i].Kind == trace.KindDeadlock {
			dl = &events[i]
		}
	}
	if dl == nil {
		t.Fatal("no deadlock event")
	}
	if dl.Cycle == nil || len(dl.Cycle.Nodes) != 2 {
		t.Fatalf("deadlock cycle = %+v, want the 2-instance waits-for cycle", dl.Cycle)
	}
	for _, a := range dl.Cycle.Arcs {
		if a.Kind != "W" {
			t.Errorf("waits-for arc kind = %q, want W", a.Kind)
		}
	}
	seen := map[int64]bool{}
	for _, n := range dl.Cycle.Nodes {
		seen[n.Instance] = true
		if n.Seq != -1 {
			t.Errorf("waits-for node has op-level seq %d, want -1", n.Seq)
		}
	}
	if !seen[1] || !seen[2] {
		t.Errorf("deadlock cycle names instances %v, want 1 and 2", dl.Cycle.Nodes)
	}
}

// TestTORejectExplanation checks TO's late-arrival reason string.
func TestTORejectExplanation(t *testing.T) {
	t1 := core.T(1, core.R("x"))
	t2 := core.T(2, core.W("x"))
	r := newTracedReplay(t, sched.NewTO())
	r.begin(1, t1)
	r.begin(2, t2)
	if d := r.request(2, t2, 0); d != sched.Grant {
		t.Fatalf("w2[x]: %v", d)
	}
	if d := r.request(1, t1, 0); d != sched.Abort {
		t.Fatalf("r1[x]: got %v, want Abort", d)
	}
	events := r.buf.Events()
	var ts *trace.Event
	for i := range events {
		if events[i].Kind == trace.KindTimestampReject {
			ts = &events[i]
		}
	}
	if ts == nil {
		t.Fatal("no ts-reject event")
	}
	if !strings.Contains(ts.Reason, "maxWrite 2") {
		t.Errorf("ts-reject reason %q does not name the blocking timestamp", ts.Reason)
	}
}

// TestAltruisticDonationEvents checks donate and wake events around a
// unit boundary.
func TestAltruisticDonationEvents(t *testing.T) {
	// T1 donates x after its first unit [w1[x]]; T2 then acquires x and
	// enters T1's wake.
	t1 := core.T(1, core.W("x"), core.W("y"))
	t2 := core.T(2, core.W("x"))
	cuts := func(a, _ *core.Transaction) []int {
		if a.ID == 1 {
			return []int{1}
		}
		return nil
	}
	r := newTracedReplay(t, sched.NewAltruistic(sched.OracleFunc(cuts)))
	r.begin(1, t1)
	r.begin(2, t2)
	if d := r.request(1, t1, 0); d != sched.Grant {
		t.Fatalf("w1[x]: %v", d)
	}
	if d := r.request(2, t2, 0); d != sched.Grant {
		t.Fatalf("w2[x] after donation: %v", d)
	}
	counts := trace.CountKinds(r.buf.Events())
	if counts[trace.KindDonate] != 1 {
		t.Errorf("donate events = %d, want 1", counts[trace.KindDonate])
	}
	if counts[trace.KindWake] != 1 {
		t.Errorf("wake events = %d, want 1", counts[trace.KindWake])
	}
}

// TestUntracedProtocolsEmitNothing guards the disabled path: replaying
// the rejection scenario without a tracer must work identically.
func TestUntracedProtocolsEmitNothing(t *testing.T) {
	t1 := core.T(1, core.W("x"), core.W("y"))
	t2 := core.T(2, core.W("y"), core.W("x"))
	p := sched.NewRSGT(sched.AbsoluteOracle{})
	p.Begin(1, t1)
	p.Begin(2, t2)
	reqs := []struct {
		inst int64
		prog *core.Transaction
		seq  int
		want sched.Decision
	}{
		{1, t1, 0, sched.Grant},
		{2, t2, 0, sched.Grant},
		{2, t2, 1, sched.Grant},
		{1, t1, 1, sched.Abort},
	}
	for _, rq := range reqs {
		d := p.Request(sched.OpRequest{Instance: rq.inst, Program: rq.prog, Seq: rq.seq, Op: rq.prog.Op(rq.seq)})
		if d != rq.want {
			t.Fatalf("%s: got %v, want %v", rq.prog.Op(rq.seq), d, rq.want)
		}
	}
}
