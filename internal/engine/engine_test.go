package engine_test

// Unit tests for the engine package itself: configuration validation,
// stage naming and the pipeline's one-core contract (Admit through
// Commit driven directly, no driver loop). Driver-level behavior —
// parity, cancellation, faults — lives in internal/txn's tests.

import (
	"context"
	"strings"
	"testing"

	"relser/internal/core"
	"relser/internal/engine"
	"relser/internal/fault"
	"relser/internal/sched"
	"relser/internal/trace"
)

func prog(id int, ops string) *core.Transaction {
	t, err := core.ParseTxn(core.TxnID(id), ops)
	if err != nil {
		panic(err)
	}
	return t
}

func TestStageNames(t *testing.T) {
	want := map[engine.Stage]string{
		engine.StageAdmit:   "admit",
		engine.StageIssue:   "issue",
		engine.StageDecide:  "decide",
		engine.StageApply:   "apply",
		engine.StageCommit:  "commit",
		engine.StageAbort:   "abort",
		engine.StageRecover: "recover",
	}
	for stage, name := range want {
		if got := stage.String(); got != name {
			t.Errorf("stage %d: got %q, want %q", stage, got, name)
		}
	}
	if got := engine.Stage(99).String(); got != "unknown" {
		t.Errorf("out-of-range stage: got %q", got)
	}
}

func TestNewCoreValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  engine.Config
		want string
	}{
		{"no protocol", engine.Config{}, "Config.Protocol is required"},
		{"no programs", engine.Config{Protocol: sched.NewNoCC()}, "no programs"},
		{"duplicate IDs", engine.Config{
			Protocol: sched.NewNoCC(),
			Programs: []*core.Transaction{prog(1, "r[x]"), prog(1, "w[y]")},
		}, "duplicate program ID"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := engine.NewCore(tc.cfg, engine.SeqClock)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestCorePipelineDirect drives one instance through the stages with
// no driver loop at all, checking each stage's observable contract and
// that every hook fires in lifecycle order.
func TestCorePipelineDirect(t *testing.T) {
	p := prog(1, "r[x] w[y]")
	var stages []engine.Stage
	note := func(s engine.Stage) func(*engine.Instance) {
		return func(*engine.Instance) { stages = append(stages, s) }
	}
	cfg := engine.Config{
		Protocol: sched.NewNoCC(),
		Programs: []*core.Transaction{p},
		Hooks: engine.Hooks{
			Admit: note(engine.StageAdmit), Issue: note(engine.StageIssue), Decide: note(engine.StageDecide),
			Apply: note(engine.StageApply), Commit: note(engine.StageCommit), Abort: note(engine.StageAbort),
		},
	}
	eng, err := engine.NewCore(cfg, engine.SeqClock)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	st := eng.Admit(&engine.Pending{Program: p})
	for !st.Done {
		if v := eng.Step(ctx, st, eng.Router.Shard(st.Program.Op(st.Next).Object)); v != (engine.Verdict{}) {
			t.Fatalf("a lone NoCC instance must apply every operation; got %+v", v)
		}
	}
	if !eng.Publish(st) {
		t.Fatal("lone finished instance must commit")
	}
	eng.AwaitAck(st)
	eng.Acknowledge(st)
	res := eng.Finalize()
	if res.Committed != 1 || res.OpsExecuted != 2 {
		t.Fatalf("unexpected result: %v", res)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("one-transaction schedule must certify: %v", err)
	}
	want := []engine.Stage{
		engine.StageAdmit,
		engine.StageIssue, engine.StageDecide, engine.StageApply,
		engine.StageIssue, engine.StageDecide, engine.StageApply,
		engine.StageCommit,
	}
	if len(stages) != len(want) {
		t.Fatalf("hook order %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("hook order %v, want %v", stages, want)
		}
	}
}

// TestStepVerdicts drives Step into each of its verdicts and checks
// what the step under test recorded: the hooks it fired (Apply only
// for an applied operation), the trace events it emitted and the
// counters the run moved. Every earlier step is a plain grant.
func TestStepVerdicts(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		proto sched.Protocol
		progs []string // one instance each, admitted in order
		steps []int    // instances stepped before the step under test
		last  int      // the instance whose step is under test
		ctx   context.Context
		want  engine.Verdict
		hooks string // hooks the step under test fired
		// kinds lists the trace events it emitted; the config wires the
		// tracer into the protocol and the store as well.
		kinds              string
		blocks, recov, ops int // counters after the run
	}{
		{"grant", sched.NewNoCC(), []string{"r[x]"}, nil, 0, context.Background(),
			engine.Verdict{}, "issue decide apply", "store-read grant", 0, 0, 1},
		{"block", sched.NewS2PL(), []string{"w[x]", "r[x]"}, []int{0}, 1, context.Background(),
			engine.Verdict{Blocked: true}, "issue decide", "lock-wait block", 1, 0, 1},
		// TO refuses a read of an object a younger instance wrote.
		{"protocol", sched.NewTOSharded(1), []string{"r[x]", "w[x]"}, []int{1}, 0, context.Background(),
			engine.Verdict{Abort: "protocol"}, "issue decide", "ts-reject abort", 0, 0, 1},
		// T2 read T1's dirty x and wrote y: T1 reading y would close a
		// dirty-data dependency cycle.
		{"recoverability", sched.NewNoCC(), []string{"w[x] r[y]", "r[x] w[y]"}, []int{0, 1, 1}, 0, context.Background(),
			engine.Verdict{Abort: "recoverability"}, "issue decide", "", 0, 1, 3},
		{"canceled", sched.NewNoCC(), []string{"r[x]"}, nil, 0, canceled,
			engine.Verdict{Abort: "canceled"}, "issue decide", "", 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hooks []string
			note := func(name string) func(*engine.Instance) {
				return func(*engine.Instance) { hooks = append(hooks, name) }
			}
			buf := trace.NewBuffer()
			var progs []*core.Transaction
			for i, ops := range tc.progs {
				progs = append(progs, prog(i+1, ops))
			}
			eng, err := engine.NewCore(engine.Config{
				Protocol: tc.proto, Programs: progs, Tracer: trace.New(buf),
				Hooks: engine.Hooks{Issue: note("issue"), Decide: note("decide"), Apply: note("apply")},
			}, engine.SeqClock)
			if err != nil {
				t.Fatal(err)
			}
			var insts []*engine.Instance
			for _, p := range progs {
				insts = append(insts, eng.Admit(&engine.Pending{Program: p}))
			}
			step := func(ctx context.Context, st *engine.Instance) engine.Verdict {
				return eng.Step(ctx, st, eng.Router.Shard(st.Program.Op(st.Next).Object))
			}
			for _, i := range tc.steps {
				if v := step(context.Background(), insts[i]); v != (engine.Verdict{}) {
					t.Fatalf("setup step of T%d: %+v", i+1, v)
				}
			}
			hooks, events := nil, len(buf.Events())
			if v := step(tc.ctx, insts[tc.last]); v != tc.want {
				t.Errorf("verdict %+v, want %+v", v, tc.want)
			}
			if got := strings.Join(hooks, " "); got != tc.hooks {
				t.Errorf("hooks %q, want %q", got, tc.hooks)
			}
			var kinds []string
			for _, ev := range buf.Events()[events:] {
				kinds = append(kinds, string(ev.Kind))
			}
			if got := strings.Join(kinds, " "); got != tc.kinds {
				t.Errorf("events %q, want %q", got, tc.kinds)
			}
			res := eng.Finalize()
			if res.Blocks != tc.blocks || res.RecoverabilityAborts != tc.recov || res.OpsExecuted != tc.ops {
				t.Errorf("blocks %d, recoverability aborts %d, ops %d; want %d, %d, %d",
					res.Blocks, res.RecoverabilityAborts, res.OpsExecuted, tc.blocks, tc.recov, tc.ops)
			}
		})
	}
}

// TestAbortAllFiresRecoverWhenIdle pins the run-scoped Recover
// contract: the unwind hook fires even with nothing in flight.
func TestAbortAllFiresRecoverWhenIdle(t *testing.T) {
	var sawRecover bool
	cfg := engine.Config{
		Protocol: sched.NewNoCC(),
		Programs: []*core.Transaction{prog(1, "r[x]")},
		Hooks:    engine.Hooks{Recover: func() { sawRecover = true }},
	}
	eng, err := engine.NewCore(cfg, engine.SeqClock)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.AbortAll("canceled"); n != 0 {
		t.Fatalf("unwound %d instances from an idle core", n)
	}
	if !sawRecover {
		t.Error("Recover hook did not fire on an idle unwind")
	}
}

// TestFinalizeRestoresExecutionOrder interleaves three instances,
// aborts one (its orders become holes) and commits the others newest
// first: the finalized trace must hold exactly the committed events in
// ascending execution order, and the live-ID list must track the table.
func TestFinalizeRestoresExecutionOrder(t *testing.T) {
	progs := []*core.Transaction{prog(1, "r[a] w[a] r[b]"), prog(2, "w[c] r[d] w[d]"), prog(3, "r[e] r[f] w[g]")}
	eng, err := engine.NewCore(engine.Config{Protocol: sched.NewNoCC(), Programs: progs}, engine.SeqClock)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var insts []*engine.Instance
	for _, p := range progs {
		insts = append(insts, eng.Admit(&engine.Pending{Program: p}))
	}
	for step := 0; step < 3; step++ {
		for _, st := range insts {
			if v := eng.Step(ctx, st, eng.Router.Shard(st.Program.Op(st.Next).Object)); v != (engine.Verdict{}) {
				t.Fatalf("instance %d: disjoint NoCC operation not applied: %+v", st.ID, v)
			}
		}
	}
	if err := eng.AbortCascade(insts[1].ID, "test", nil); err != nil {
		t.Fatal(err)
	}
	if ids := eng.AppendActiveIDs(nil); len(ids) != 2 || ids[0] != insts[0].ID || ids[1] != insts[2].ID {
		t.Fatalf("live IDs after the abort: %v", ids)
	}
	for _, st := range []*engine.Instance{insts[2], insts[0]} {
		if !eng.Publish(st) {
			t.Fatalf("instance %d must commit", st.ID)
		}
		eng.AwaitAck(st)
		eng.Acknowledge(st)
	}
	if ids := eng.AppendActiveIDs(nil); len(ids) != 0 {
		t.Fatalf("live IDs after the commits: %v", ids)
	}
	res := eng.Finalize()
	want := []int64{1, 3, 4, 6, 7, 9} // instance 2 drew 2, 5 and 8
	if len(res.Trace) != len(want) {
		t.Fatalf("trace has %d events, want %d", len(res.Trace), len(want))
	}
	for i, ev := range res.Trace {
		if ev.Order != want[i] || ev.Instance == insts[1].ID {
			t.Fatalf("trace[%d] = instance %d order %d, want order %d", i, ev.Instance, ev.Order, want[i])
		}
	}
}

// TestCheckStageOrder pins the pre-issue checks' order on the tick
// clock — deadline first, then txn.abort, then sched.grant.delay — and
// that the stage counts what fired.
func TestCheckStageOrder(t *testing.T) {
	p := prog(1, "r[x]")
	for _, tc := range []struct {
		spec  string
		ticks int
		want  string // abort reason, or "delay"
	}{
		{"txn.abort:1,sched.grant.delay:1", 0, "injected"},
		{"txn.abort:1,sched.grant.delay:1", 2, "deadline"},
		{"sched.grant.delay:1", 0, "delay"},
		{"sched.grant.delay:0", 1, ""},
	} {
		eng, err := engine.NewCore(engine.Config{
			Protocol: sched.NewNoCC(), Programs: []*core.Transaction{p},
			Deadline: 1, Faults: fault.New(1, fault.MustParseSpec(tc.spec)),
		}, engine.TickClock)
		if err != nil {
			t.Fatal(err)
		}
		st := eng.Admit(&engine.Pending{Program: p})
		for i := 0; i < tc.ticks; i++ {
			eng.Tick()
		}
		v := eng.Check(st)
		got := v.Abort
		if v.Delay > 0 {
			got += "delay"
		}
		if got != tc.want {
			t.Errorf("%s after %d ticks: verdict %+v, want %q", tc.spec, tc.ticks, v, tc.want)
		}
		res := eng.Finalize()
		counted := map[string]int{"deadline": res.DeadlineAborts, "injected": res.InjectedAborts, "delay": res.InjectedDelays}
		for k, n := range counted {
			want := 0
			if k == tc.want {
				want = 1
			}
			if n != want {
				t.Errorf("%s after %d ticks: %s counted %d, want %d", tc.spec, tc.ticks, k, n, want)
			}
		}
		wantAvg := 0.0
		if tc.ticks > 0 {
			wantAvg = 1 // one instance in flight every tick
		}
		if res.Ticks != tc.ticks || res.AvgConcurrency != wantAvg {
			t.Errorf("ticks %d avg %v, want %d and %v", res.Ticks, res.AvgConcurrency, tc.ticks, wantAvg)
		}
	}
}

// TestRestartAccounting pins the one restart-accounting method: each
// call charges a restart until the program exceeds MaxRestarts, and the
// exhaustion error names the reason of the cascade that aborted it.
func TestRestartAccounting(t *testing.T) {
	p := prog(1, "r[x]")
	eng, err := engine.NewCore(engine.Config{
		Protocol: sched.NewNoCC(), Programs: []*core.Transaction{p}, MaxRestarts: 2,
	}, engine.SeqClock)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Admit(&engine.Pending{Program: p, Restarts: 1})
	if err := eng.AbortCascade(st.ID, "protocol", nil); err != nil {
		t.Fatal(err)
	}
	if n, level, err := eng.Restart(st); n != 2 || level != 0 || err != nil {
		t.Fatalf("Restart = %d, %d, %v; want 2, 0, nil", n, level, err)
	}
	_, _, err = eng.Restart(st)
	if want := "txn: program T1 exceeded 2 restarts (reason protocol)"; err == nil || err.Error() != want {
		t.Fatalf("Restart past the budget = %v, want %q", err, want)
	}
	if res := eng.Finalize(); res.Restarts != 1 || res.Aborts != 1 {
		t.Errorf("restarts %d aborts %d, want 1 and 1", res.Restarts, res.Aborts)
	}
}
