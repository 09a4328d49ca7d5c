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
	"relser/internal/sched"
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
			_, err := engine.NewCore(tc.cfg)
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
	eng, err := engine.NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	st := eng.Admit(&engine.Pending{Program: p}, 0)
	for !st.Done {
		op := st.Program.Op(st.Next)
		req := sched.OpRequest{Instance: st.ID, Program: st.Program, Seq: st.Next, Op: op, Ctx: ctx}
		if d := eng.Decide(st, req); d != sched.Grant {
			t.Fatalf("NoCC must grant; got %v", d)
		}
		shardIdx := eng.Router.Shard(op.Object)
		if eng.Unrecoverable(st, op, shardIdx) {
			t.Fatal("single instance cannot be unrecoverable")
		}
		order := eng.Apply(ctx, st, op, shardIdx)
		eng.ObserveGrant(st, op, order, 0)
	}
	if !eng.TryCommit(st, 1) {
		t.Fatal("lone finished instance must commit")
	}
	res := eng.Finalize(1, 1)
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

// TestAbortAllFiresRecoverWhenIdle pins the run-scoped Recover
// contract: the unwind hook fires even with nothing in flight.
func TestAbortAllFiresRecoverWhenIdle(t *testing.T) {
	var sawRecover bool
	cfg := engine.Config{
		Protocol: sched.NewNoCC(),
		Programs: []*core.Transaction{prog(1, "r[x]")},
		Hooks:    engine.Hooks{Recover: func() { sawRecover = true }},
	}
	eng, err := engine.NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.AbortAll("canceled", 0); n != 0 {
		t.Fatalf("unwound %d instances from an idle core", n)
	}
	if !sawRecover {
		t.Error("Recover hook did not fire on an idle unwind")
	}
}
