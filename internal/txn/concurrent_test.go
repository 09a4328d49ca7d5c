package txn_test

import (
	"testing"

	"relser/internal/core"
	"relser/internal/paperfig"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/txn"
	"relser/internal/workload"
)

func TestConcurrentValidation(t *testing.T) {
	if _, err := txn.NewConcurrent(txn.Config{}); err == nil {
		t.Error("missing protocol accepted")
	}
}

func TestConcurrentS2PLCommitsAll(t *testing.T) {
	var progs []*core.Transaction
	for i := 1; i <= 12; i++ {
		progs = append(progs, core.T(core.TxnID(i), core.R("x"), core.W("x"), core.R("y"), core.W("y")))
	}
	r, err := txn.NewConcurrent(txn.Config{Protocol: sched.NewS2PL(), Programs: progs, MPL: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 12 {
		t.Fatalf("Committed = %d", res.Committed)
	}
	if err := res.Verify(); err != nil {
		t.Errorf("verification: %v", err)
	}
}

func TestConcurrentDeadlockRecovery(t *testing.T) {
	progs := []*core.Transaction{
		core.T(1, core.W("x"), core.W("y")),
		core.T(2, core.W("y"), core.W("x")),
		core.T(3, core.W("x"), core.W("y")),
		core.T(4, core.W("y"), core.W("x")),
	}
	r, err := txn.NewConcurrent(txn.Config{Protocol: sched.NewS2PL(), Programs: progs, MPL: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 4 {
		t.Fatalf("Committed = %d (result %s)", res.Committed, res)
	}
	if err := res.Verify(); err != nil {
		t.Errorf("verification: %v", err)
	}
}

func TestConcurrentRSGTWithPaperSpec(t *testing.T) {
	inst := paperfig.Figure1()
	oracle := sched.SpecOracle{Spec: inst.Spec}
	for trial := 0; trial < 20; trial++ {
		r, err := txn.NewConcurrent(txn.Config{
			Protocol: sched.NewRSGT(oracle),
			Programs: inst.Set.Txns(),
			Oracle:   oracle,
			MPL:      3,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Committed != 3 {
			t.Fatalf("trial %d: Committed = %d", trial, res.Committed)
		}
		if err := res.Verify(); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

func TestConcurrentWorkloadsAllProtocols(t *testing.T) {
	// Run each workload concurrently under each protocol; check
	// outcomes and invariants (the race detector covers the rest).
	makeWorkloads := func(seed int64) []*workload.Workload {
		b, err := workload.Banking(workload.DefaultBankingConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		l, err := workload.LongLived(workload.DefaultLongLivedConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		return []*workload.Workload{b, l}
	}
	for _, w := range makeWorkloads(3) {
		for _, proto := range []string{"s2pl", "sgt", "rsgt", "altruistic", "ral"} {
			t.Run(w.Name+"/"+proto, func(t *testing.T) {
				var p sched.Protocol
				switch proto {
				case "s2pl":
					p = sched.NewS2PL()
				case "sgt":
					p = sched.NewSGT()
				case "rsgt":
					p = sched.NewRSGT(w.Oracle)
				case "altruistic":
					p = sched.NewAltruistic(w.Oracle)
				case "ral":
					p = sched.NewRAL(w.Oracle)
				}
				store := storage.NewStore()
				store.Load(w.Initial)
				r, err := txn.NewConcurrent(txn.Config{
					Protocol:  p,
					Programs:  w.Programs,
					Oracle:    w.Oracle,
					Store:     store,
					Semantics: w.Semantics,
					MPL:       6,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Committed != len(w.Programs) {
					t.Fatalf("committed %d of %d", res.Committed, len(w.Programs))
				}
				if err := res.Verify(); err != nil {
					t.Errorf("verification: %v", err)
				}
				if w.Invariant != nil {
					if err := w.Invariant(store.Snapshot()); err != nil {
						t.Errorf("invariant: %v", err)
					}
				}
			})
		}
	}
}

func TestConcurrentSingleWorker(t *testing.T) {
	// MPL 1 degenerates to serial execution; still must work.
	progs := []*core.Transaction{
		core.T(1, core.W("a")),
		core.T(2, core.R("a")),
	}
	r, err := txn.NewConcurrent(txn.Config{Protocol: sched.NewS2PL(), Programs: progs, MPL: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 2 || res.Aborts != 0 {
		t.Errorf("result %s", res)
	}
	s, _, err := res.CommittedSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsSerial() {
		t.Errorf("single-worker schedule should be serial: %s", s)
	}
}

func TestConcurrentMaxRestartsSurfaces(t *testing.T) {
	// Force immediate, repeated aborts: a protocol that always aborts.
	r, err := txn.NewConcurrent(txn.Config{
		Protocol:    alwaysAbort{},
		Programs:    []*core.Transaction{core.T(1, core.R("x"))},
		MPL:         1,
		MaxRestarts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Error("restart overflow should surface as an error")
	}
}

type alwaysAbort struct{}

func (alwaysAbort) Name() string                           { return "always-abort" }
func (alwaysAbort) Begin(int64, *core.Transaction)         {}
func (alwaysAbort) Request(sched.OpRequest) sched.Decision { return sched.Abort }
func (alwaysAbort) CanCommit(int64) bool                   { return true }
func (alwaysAbort) Commit(int64)                           {}
func (alwaysAbort) Abort(int64)                            {}

func TestConcurrentBlockingContention(t *testing.T) {
	// Crossing lock orders under S2PL with many workers force real
	// blocking (cond waits) and deadlock victimization in the
	// concurrent driver.
	var progs []*core.Transaction
	for i := 1; i <= 8; i++ {
		if i%2 == 0 {
			progs = append(progs, core.T(core.TxnID(i), core.W("a"), core.W("b")))
		} else {
			progs = append(progs, core.T(core.TxnID(i), core.W("b"), core.W("a")))
		}
	}
	for trial := 0; trial < 5; trial++ {
		r, err := txn.NewConcurrent(txn.Config{Protocol: sched.NewS2PL(), Programs: progs, MPL: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Committed != len(progs) {
			t.Fatalf("trial %d: committed %d", trial, res.Committed)
		}
		if err := res.Verify(); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

func TestConcurrentDirtyDataDependencies(t *testing.T) {
	// NoCC admits everything, so concurrent workers read and overwrite
	// each other's dirty data: the cascade and commit-gating paths of
	// the concurrent driver must keep outcomes consistent.
	var progs []*core.Transaction
	for i := 1; i <= 10; i++ {
		progs = append(progs, core.T(core.TxnID(i), core.R("h"), core.W("h")))
	}
	for trial := 0; trial < 5; trial++ {
		r, err := txn.NewConcurrent(txn.Config{Protocol: sched.NewNoCC(), Programs: progs, MPL: 6})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Committed != len(progs) {
			t.Fatalf("trial %d: committed %d", trial, res.Committed)
		}
	}
}

func TestConcurrentCommitWaitPath(t *testing.T) {
	// A protocol that delays commits until a peer commits first forces
	// the done-but-waiting branch (CanCommit false) in the concurrent
	// driver; the stall breaker must clean up the final holdout.
	progs := []*core.Transaction{
		core.T(1, core.W("a")),
		core.T(2, core.W("b")),
	}
	r, err := txn.NewConcurrent(txn.Config{Protocol: &commitAfterPeer{}, Programs: progs, MPL: 2})
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
}

// commitAfterPeer grants everything but lets an instance commit only
// after at least one other instance has committed (the first committer
// gets through via the stall-break path).
type commitAfterPeer struct {
	commits int
}

func (p *commitAfterPeer) Name() string                           { return "commit-after-peer" }
func (p *commitAfterPeer) Begin(int64, *core.Transaction)         {}
func (p *commitAfterPeer) Request(sched.OpRequest) sched.Decision { return sched.Grant }
func (p *commitAfterPeer) CanCommit(int64) bool                   { return p.commits > 0 }
func (p *commitAfterPeer) Commit(int64)                           { p.commits++ }
func (p *commitAfterPeer) Abort(int64)                            { p.commits++ }
