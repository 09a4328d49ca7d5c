package txn_test

// Cancellation corpus: a run context canceled while transactions are
// mid-flight must unwind through the engine's Recover stage no matter
// which lifecycle stage the cancellation lands on — effects rolled
// back, WAL abort records appended — so the store stays
// invariant-clean and the log recovers to exactly the committed
// transactions. Config.Hooks places the cancellation at each stage in
// turn, on both drivers.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"relser/internal/engine"
	"relser/internal/fault"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/trace"
	"relser/internal/txn"
	"relser/internal/workload"
)

var cancelStages = []txn.Stage{
	txn.StageAdmit, txn.StageIssue, txn.StageDecide,
	txn.StageApply, txn.StageCommit, txn.StageAbort,
}

// runCanceledAtStage runs the banking workload and cancels the context
// the third time the given stage fires, then checks the unwind left
// store and WAL consistent.
func runCanceledAtStage(t *testing.T, stage txn.Stage, concurrent bool) {
	t.Helper()
	w, err := workload.Banking(workload.DefaultBankingConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore()
	store.Load(w.Initial)
	log := newTestLog(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Int32
	var unwound atomic.Bool
	hooks := txn.Hooks{Recover: func() { unwound.Store(true) }}
	cancelOnThird := func(*engine.Instance) {
		if fired.Add(1) == 3 {
			cancel()
		}
	}
	switch stage {
	case txn.StageAdmit:
		hooks.Admit = cancelOnThird
	case txn.StageIssue:
		hooks.Issue = cancelOnThird
	case txn.StageDecide:
		hooks.Decide = cancelOnThird
	case txn.StageApply:
		hooks.Apply = cancelOnThird
	case txn.StageCommit:
		hooks.Commit = cancelOnThird
	case txn.StageAbort:
		hooks.Abort = cancelOnThird
	}
	cfg := txn.Config{
		Protocol:  sched.NewRSGT(w.Oracle),
		Programs:  w.Programs,
		Oracle:    w.Oracle,
		Store:     store,
		Semantics: w.Semantics,
		MPL:       8,
		Seed:      7,
		WAL:       log,
		// A mild abort storm keeps every stage busy — without it, low-
		// contention concurrent runs can finish before StageAbort ever
		// fires three times.
		Faults: fault.New(7, fault.MustParseSpec("txn.abort:0.2")),
		Hooks:  hooks,
	}
	var (
		res    *txn.Result
		runErr error
	)
	if concurrent {
		cfg.Shards = 4
		r, err := txn.NewConcurrent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, runErr = r.RunContext(ctx)
	} else {
		r, err := txn.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, runErr = r.RunContext(ctx)
	}
	if runErr == nil {
		if fired.Load() < 3 {
			// The stage never fired often enough to cancel (e.g. an
			// uncontended run with no aborts); nothing to assert.
			t.Skipf("stage %s fired %d times; run completed", stage, fired.Load())
		}
		t.Fatalf("run succeeded (%v) despite cancellation at stage %s", res, stage)
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("run error does not carry the cancellation cause: %v", runErr)
	}
	if !unwound.Load() {
		t.Error("Recover stage never fired on the canceled run")
	}
	// The unwind rolled uncommitted effects back: only committed
	// transfers remain, so balance conservation must hold on the live
	// store.
	if err := w.Invariant(store.Snapshot()); err != nil {
		t.Errorf("canceled run left the store dirty: %v", err)
	}
	// The WAL is recoverable: every in-flight instance got its abort
	// record, and replay reproduces the live store.
	recovered, report := recoverLog(t, log.bytes(t), w.Initial)
	if !report.Clean() {
		t.Fatalf("WAL damaged after cancellation: %s", report)
	}
	if report.Unfinished != 0 || report.Orphans != 0 {
		t.Errorf("canceled run left a ragged log: %s", report)
	}
	live := store.Snapshot()
	for obj, v := range recovered.Snapshot() {
		if live[obj] != v {
			t.Errorf("recovered %s=%d, live %d", obj, v, live[obj])
		}
	}
	if err := w.Invariant(recovered.Snapshot()); err != nil {
		t.Errorf("recovered store breaks invariant: %v", err)
	}
}

func TestCancelAtEachStage(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		driver := "serial"
		if concurrent {
			driver = "concurrent"
		}
		for _, stage := range cancelStages {
			t.Run(fmt.Sprintf("%s/%s", driver, stage), func(t *testing.T) {
				runCanceledAtStage(t, stage, concurrent)
			})
		}
	}
}

// TestCancelIsNotARefusal cancels a tick-driver run from the Issue
// hook: the canceled request must not be traced as a protocol refusal,
// and no instance may be aborted for "protocol" after the cancel. The
// driver offers no more turns; the Recover stage unwinds the rest.
func TestCancelIsNotARefusal(t *testing.T) {
	w, err := workload.Banking(workload.DefaultBankingConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore()
	store.Load(w.Initial)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf := trace.NewBuffer()
	calls, canceledAt := 0, -1
	r, err := txn.New(txn.Config{
		Protocol:  sched.NewRSGT(w.Oracle),
		Programs:  w.Programs,
		Oracle:    w.Oracle,
		Store:     store,
		Semantics: w.Semantics,
		MPL:       8,
		Seed:      7,
		Tracer:    trace.New(buf),
		Hooks: txn.Hooks{Issue: func(*engine.Instance) {
			if calls++; calls == 3 {
				canceledAt = len(buf.Events())
				cancel()
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want canceled, got %v", err)
	}
	unwound := 0
	for _, ev := range buf.Events()[canceledAt:] {
		switch {
		case ev.Kind == trace.KindAbortDecision:
			t.Errorf("canceled request traced as a protocol refusal: %+v", ev)
		case ev.Kind == trace.KindTxnAbort && ev.Reason == "protocol":
			t.Errorf("instance %d aborted for \"protocol\" after the cancel", ev.Instance)
		case ev.Kind == trace.KindTxnAbort && ev.Reason == "canceled":
			unwound++
		}
	}
	if unwound == 0 {
		t.Error("no instance was unwound as canceled")
	}
}

// TestRunOptionsTimeout exercises the workload-level wall-clock bound:
// an immediately-expiring timeout must fail the run with the deadline
// as cause on both drivers.
func TestRunOptionsTimeout(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		w, err := workload.Banking(workload.DefaultBankingConfig(), 3)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{
			Seed: 3, MPL: 8, Concurrent: concurrent, Shards: 2,
			Timeout: time.Nanosecond,
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("concurrent=%v: want deadline cause, got %v", concurrent, err)
		}
	}
}

// TestCancelBeforeRun pins the edge case: a context already canceled
// at entry fails immediately with nothing admitted and an empty log.
func TestCancelBeforeRun(t *testing.T) {
	w, err := workload.Banking(workload.DefaultBankingConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, concurrent := range []bool{false, true} {
		_, _, err := w.RunWithContext(ctx, sched.NewRSGT(w.Oracle), workload.RunOptions{
			Seed: 5, MPL: 8, Concurrent: concurrent,
			WAL: newTestLog(t),
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("concurrent=%v: want canceled, got %v", concurrent, err)
		}
	}
}
