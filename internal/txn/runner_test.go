package txn_test

import (
	"strings"
	"testing"

	"relser/internal/core"
	"relser/internal/paperfig"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/txn"
)

func twoWriters() []*core.Transaction {
	return []*core.Transaction{
		core.T(1, core.R("x"), core.W("x")),
		core.T(2, core.R("x"), core.W("x")),
	}
}

func TestRunnerValidation(t *testing.T) {
	if _, err := txn.New(txn.Config{}); err == nil {
		t.Error("missing protocol accepted")
	}
	if _, err := txn.New(txn.Config{Protocol: sched.NewNoCC()}); err == nil {
		t.Error("missing programs accepted")
	}
	dup := []*core.Transaction{core.T(1, core.R("x")), core.T(1, core.W("y"))}
	if _, err := txn.New(txn.Config{Protocol: sched.NewNoCC(), Programs: dup}); err == nil {
		t.Error("duplicate program IDs accepted")
	}
}

func TestRunnerCommitsEverythingUnderS2PL(t *testing.T) {
	r, err := txn.New(txn.Config{
		Protocol: sched.NewS2PL(),
		Programs: twoWriters(),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 2 {
		t.Fatalf("Committed = %d, want 2", res.Committed)
	}
	if err := res.Verify(); err != nil {
		t.Errorf("committed schedule failed verification: %v", err)
	}
	if res.OpsExecuted < 4 {
		t.Errorf("OpsExecuted = %d", res.OpsExecuted)
	}
}

func TestRunnerDeterministic(t *testing.T) {
	run := func() string {
		r, err := txn.New(txn.Config{Protocol: sched.NewS2PL(), Programs: twoWriters(), Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := res.CommittedSchedule()
		if err != nil {
			t.Fatal(err)
		}
		return s.String() + "|" + res.String()
	}
	if run() != run() {
		t.Error("same seed must reproduce the identical run")
	}
}

func TestRunnerDeadlockRecovery(t *testing.T) {
	// Classic crossing writers deadlock under 2PL; the victim restarts
	// and both must eventually commit.
	progs := []*core.Transaction{
		core.T(1, core.W("x"), core.W("y")),
		core.T(2, core.W("y"), core.W("x")),
	}
	r, err := txn.New(txn.Config{Protocol: sched.NewS2PL(), Programs: progs, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 2 {
		t.Fatalf("Committed = %d, want 2 (result %s)", res.Committed, res)
	}
	if err := res.Verify(); err != nil {
		t.Errorf("verification: %v", err)
	}
}

func TestRunnerCascadingAbort(t *testing.T) {
	// Under NoCC with heavy write-write overlap, aborts are driven only
	// by stalls, which NoCC never causes — so instead exercise the
	// cascade through RSGT, which aborts on cycles: writers and readers
	// chained on one object must still converge with a consistent
	// store.
	store := storage.NewStore()
	store.Load(map[string]storage.Value{"x": 1})
	progs := []*core.Transaction{
		core.T(1, core.R("x"), core.W("x"), core.W("y")),
		core.T(2, core.R("x"), core.W("x")),
		core.T(3, core.R("y"), core.W("x")),
	}
	r, err := txn.New(txn.Config{
		Protocol: sched.NewRSGT(sched.AbsoluteOracle{}),
		Programs: progs,
		Store:    store,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 3 {
		t.Fatalf("Committed = %d, want 3", res.Committed)
	}
	if err := res.Verify(); err != nil {
		t.Errorf("verification: %v", err)
	}
}

func TestRunnerEmitsCommittedScheduleOnly(t *testing.T) {
	progs := twoWriters()
	r, err := txn.New(txn.Config{Protocol: sched.NewSGT(), Programs: progs, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	s, sp, err := res.CommittedSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Errorf("committed schedule has %d ops, want 4", s.Len())
	}
	if !sp.IsAbsolute() {
		t.Error("absolute oracle should produce absolute spec")
	}
}

func TestRunnerMPLBoundsConcurrency(t *testing.T) {
	var progs []*core.Transaction
	for i := 1; i <= 10; i++ {
		progs = append(progs, core.T(core.TxnID(i), core.R("a"), core.W("b")))
	}
	r, err := txn.New(txn.Config{Protocol: sched.NewNoCC(), Programs: progs, MPL: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgConcurrency > 2.0001 {
		t.Errorf("AvgConcurrency = %f exceeds MPL 2", res.AvgConcurrency)
	}
	if res.Committed != 10 {
		t.Errorf("Committed = %d", res.Committed)
	}
}

func TestRunnerPaperInstanceThroughRSGT(t *testing.T) {
	// Run the Figure 1 transactions under RSGT with the paper's
	// specification; the committed schedule must be certified
	// relatively serializable by the offline RSG (Theorem 1 end to
	// end).
	inst := paperfig.Figure1()
	progs := inst.Set.Txns()
	for seed := int64(0); seed < 10; seed++ {
		r, err := txn.New(txn.Config{
			Protocol: sched.NewRSGT(sched.SpecOracle{Spec: inst.Spec}),
			Programs: progs,
			Oracle:   sched.SpecOracle{Spec: inst.Spec},
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Committed != 3 {
			t.Fatalf("seed %d: Committed = %d", seed, res.Committed)
		}
		if err := res.Verify(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestVerifyFailsForUncontrolledRuns(t *testing.T) {
	// NoCC admits everything; the classic lost-update pattern (read
	// clean, write over a peer's dirty value) stays recoverable yet is
	// not conflict serializable, so across contended seeds Verify must
	// reject at least one committed schedule under absolute atomicity.
	var progs []*core.Transaction
	for i := 1; i <= 6; i++ {
		progs = append(progs, core.T(core.TxnID(i), core.R("h"), core.W("h")))
	}
	sawViolation := false
	for seed := int64(0); seed < 30 && !sawViolation; seed++ {
		r, err := txn.New(txn.Config{Protocol: sched.NewNoCC(), Programs: progs, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			if !strings.Contains(err.Error(), "not relatively serializable") {
				t.Fatalf("unexpected error: %v", err)
			}
			sawViolation = true
		}
	}
	if !sawViolation {
		t.Error("NoCC never violated serializability across 30 contended seeds (suspicious)")
	}
}

func TestResultStringAndEmpty(t *testing.T) {
	res := &txn.Result{Protocol: "x"}
	if _, _, err := res.CommittedSchedule(); err == nil {
		t.Error("empty result should not reconstruct a schedule")
	}
	if !strings.Contains(res.String(), "x:") {
		t.Errorf("String = %q", res.String())
	}
}

func TestRunnerStallVictimization(t *testing.T) {
	// A protocol that always blocks can make no progress: the driver
	// must victimize, restart with backoff, and eventually surface the
	// restart-limit error rather than hanging.
	r, err := txn.New(txn.Config{
		Protocol:    blockForever{},
		Programs:    []*core.Transaction{core.T(1, core.R("x"))},
		MaxRestarts: 3,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("expected restart-limit error")
	}
}

func TestRunnerCommitWaitsCounted(t *testing.T) {
	progs := []*core.Transaction{
		core.T(1, core.W("a")),
		core.T(2, core.W("b")),
	}
	r, err := txn.New(txn.Config{Protocol: &commitAfterPeer{}, Programs: progs, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 2 {
		t.Fatalf("committed %d", res.Committed)
	}
	if res.CommitWaits == 0 {
		t.Error("expected commit waits to be counted")
	}
	if res.Aborts == 0 {
		t.Error("expected the stall breaker to have aborted the first holdout")
	}
}

type blockForever struct{}

func (blockForever) Name() string                           { return "block-forever" }
func (blockForever) Begin(int64, *core.Transaction)         {}
func (blockForever) Request(sched.OpRequest) sched.Decision { return sched.Block }
func (blockForever) CanCommit(int64) bool                   { return true }
func (blockForever) Commit(int64)                           {}
func (blockForever) Abort(int64)                            {}

func TestRunnerLatencyStats(t *testing.T) {
	var progs []*core.Transaction
	for i := 1; i <= 6; i++ {
		progs = append(progs, core.T(core.TxnID(i), core.R("a"), core.W("b")))
	}
	r, err := txn.New(txn.Config{Protocol: sched.NewS2PL(), Programs: progs, Seed: 3, MPL: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyMean <= 0 {
		t.Errorf("LatencyMean = %f, want > 0", res.LatencyMean)
	}
	if res.LatencyP95 < res.LatencyMean {
		t.Errorf("P95 (%f) below mean (%f)", res.LatencyP95, res.LatencyMean)
	}
}

func TestTimelineRendering(t *testing.T) {
	var progs []*core.Transaction
	for i := 1; i <= 4; i++ {
		progs = append(progs, core.T(core.TxnID(i), core.R("a"), core.W("b")))
	}
	r, err := txn.New(txn.Config{Protocol: sched.NewNoCC(), Programs: progs, Seed: 1, MPL: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) != 4 {
		t.Fatalf("Spans = %d, want 4", len(res.Spans))
	}
	out := res.Timeline(40)
	for i := 1; i <= 4; i++ {
		if !strings.Contains(out, "T"+string(rune('0'+i))) {
			t.Errorf("timeline missing T%d:\n%s", i, out)
		}
	}
	if !strings.Contains(out, "=") && !strings.Contains(out, ">") {
		t.Errorf("timeline has no bars:\n%s", out)
	}
	empty := (&txn.Result{}).Timeline(40)
	if !strings.Contains(empty, "no committed instances") {
		t.Errorf("empty timeline = %q", empty)
	}
}
