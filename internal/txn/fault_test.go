package txn_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"relser/internal/core"
	"relser/internal/fault"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/txn"
	"relser/internal/workload"
)

// chaosBankingRun executes one seeded deterministic banking run under
// the given fault spec and returns the result (nil if the run crashed),
// the run error, the WAL bytes (testLog.bytes) and the injector
// fingerprint.
func chaosBankingRun(t *testing.T, seed int64, spec string, cfg workload.BankingConfig) (*txn.Result, error, []byte, string) {
	t.Helper()
	w, err := workload.Banking(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sched.NewProtocol("rsgt", w.Oracle)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore()
	store.Load(w.Initial)
	log := newTestLog(t)
	inj := fault.New(seed, fault.MustParseSpec(spec))
	r, err := txn.New(txn.Config{
		Protocol:    p,
		Programs:    w.Programs,
		Oracle:      w.Oracle,
		Store:       store,
		Semantics:   w.Semantics,
		MPL:         8,
		Seed:        seed,
		MaxRestarts: 100000,
		WAL:         log,
		Faults:      inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := r.Run()
	return res, runErr, log.bytes(t), inj.Fingerprint()
}

// TestFaultReplayByteIdentical is the reproducibility contract: two
// runs with the same seed and spec must produce the identical fault
// schedule (fingerprint) and a byte-identical WAL, including the
// injected-abort and grant-delay decisions inside the scheduler loop.
func TestFaultReplayByteIdentical(t *testing.T) {
	const spec = "txn.abort:0.1,sched.grant.delay:0.05"
	for seed := int64(1); seed <= 3; seed++ {
		res1, err1, wal1, fp1 := chaosBankingRun(t, seed, spec, workload.DefaultBankingConfig())
		res2, err2, wal2, fp2 := chaosBankingRun(t, seed, spec, workload.DefaultBankingConfig())
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("seed %d: outcomes diverged: %v vs %v", seed, err1, err2)
		}
		if fp1 != fp2 {
			t.Errorf("seed %d: fingerprints diverged: %s vs %s", seed, fp1, fp2)
		}
		if !bytes.Equal(wal1, wal2) {
			t.Errorf("seed %d: WALs diverged (%d vs %d bytes)", seed, len(wal1), len(wal2))
		}
		if err1 == nil && res1.Committed != res2.Committed {
			t.Errorf("seed %d: committed diverged: %d vs %d", seed, res1.Committed, res2.Committed)
		}
		if err1 == nil && (res1.InjectedAborts == 0 || res1.InjectedDelays == 0) {
			t.Errorf("seed %d: %d injected aborts and %d grant delays fired; want both", seed, res1.InjectedAborts, res1.InjectedDelays)
		}
	}
}

// TestDeadlineAbortDeterministic pins the timeout-abort path on the
// deterministic driver: under S2PL, T2 blocks on T1's exclusive lock
// for six ticks, overruns its nine-tick deadline on the first
// incarnation, and completes solo on the retry — for every seed.
func TestDeadlineAbortDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t1 := core.T(1, core.W("x"), core.W("a1"), core.W("a2"), core.W("a3"), core.W("a4"), core.W("a5"))
		t2 := core.T(2, core.R("x"), core.R("b1"), core.R("b2"), core.R("b3"), core.R("b4"), core.R("b5"))
		r, err := txn.New(txn.Config{
			Protocol:    sched.NewS2PL(),
			Programs:    []*core.Transaction{t1, t2},
			MPL:         8,
			Seed:        seed,
			Deadline:    9,
			MaxRestarts: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Committed != 2 {
			t.Fatalf("seed %d: committed %d of 2", seed, res.Committed)
		}
		if res.DeadlineAborts == 0 {
			t.Errorf("seed %d: blocked T2 never overran its deadline", seed)
		}
	}
}

// TestShedUnderAbortStorm verifies graceful degradation: a 0.5-rate
// injected abort storm on short transfers must trip the admission
// controller (effective MPL degrades below the configured level), yet
// the run still completes with the balance invariant intact.
func TestShedUnderAbortStorm(t *testing.T) {
	cfg := workload.DefaultBankingConfig()
	cfg.CreditAudits = 0
	cfg.BankAudits = 0
	w, err := workload.Banking(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, _, wal, _ := chaosBankingRun(t, 1, "txn.abort:0.5", cfg)
	if res == nil {
		t.Fatal("storm run crashed; txn.abort must not kill the run")
	}
	if res.InjectedAborts == 0 {
		t.Fatal("no injected aborts at rate 0.5")
	}
	if res.LoadSheds == 0 || res.MinEffectiveMPL >= 8 {
		t.Fatalf("admission controller never shed: sheds=%d minEffectiveMPL=%d", res.LoadSheds, res.MinEffectiveMPL)
	}
	st, _ := recoverLog(t, wal, w.Initial)
	if err := w.Invariant(st.Snapshot()); err != nil {
		t.Fatalf("invariant after storm recovery: %v", err)
	}
}

// TestInjectedCrashRecoversClean forces WAL crash faults and checks the
// failure surfaces as fault.ErrCrash (not silent truncation) and that
// recovery from the surviving log preserves the invariant.
func TestInjectedCrashRecoversClean(t *testing.T) {
	crashed := false
	for seed := int64(1); seed <= 10 && !crashed; seed++ {
		res, runErr, wal, _ := chaosBankingRun(t, seed, "wal.crash:0.02", workload.DefaultBankingConfig())
		if runErr != nil {
			if !errors.Is(runErr, fault.ErrCrash) {
				t.Fatalf("seed %d: crash surfaced as %v, want fault.ErrCrash", seed, runErr)
			}
			crashed = true
		} else if res.Verify() != nil {
			t.Fatalf("seed %d: surviving run failed verification", seed)
		}
		w, err := workload.Banking(workload.DefaultBankingConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := recoverLog(t, wal, w.Initial)
		if err := w.Invariant(st.Snapshot()); err != nil {
			t.Fatalf("seed %d: invariant after crash recovery: %v", seed, err)
		}
	}
	if !crashed {
		t.Fatal("no crash fault fired across 10 seeds at rate 0.02")
	}
}

// TestWatchdogSurfacesWedge arms a rate-1 shard wedge under a short
// watchdog: the concurrent run must fail with a *WedgeError naming the
// wedge instead of hanging.
func TestWatchdogSurfacesWedge(t *testing.T) {
	w, err := workload.Banking(workload.DefaultBankingConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore()
	store.Load(w.Initial)
	r, err := txn.NewConcurrent(txn.Config{
		Protocol:  sched.NewNoCC(),
		Programs:  w.Programs,
		Oracle:    w.Oracle,
		Store:     store,
		Semantics: w.Semantics,
		MPL:       4,
		Seed:      1,
		Watchdog:  150 * time.Millisecond,
		Faults:    fault.New(1, fault.MustParseSpec("shard.wedge:1")),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = r.Run()
	var we *txn.WedgeError
	if !errors.As(err, &we) {
		t.Fatalf("wedged run returned %v, want *WedgeError", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v to surface a rate-1 wedge", elapsed)
	}
}

// TestLatencyPointsFire: the store and the concurrent driver consult
// their latency points on every read, write and step, so each armed
// point fires. Nothing else notices a latency point that stops firing:
// slowness changes no outcome by design.
func TestLatencyPointsFire(t *testing.T) {
	w, err := workload.Banking(workload.DefaultBankingConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore()
	store.Load(w.Initial)
	inj := fault.New(1, fault.MustParseSpec("store.read.delay:1:1us,store.write.delay:1:1us,shard.stall:1:1us"))
	r, err := txn.NewConcurrent(txn.Config{
		Protocol:  sched.NewS2PLSharded(4),
		Programs:  w.Programs,
		Oracle:    w.Oracle,
		Store:     store,
		Semantics: w.Semantics,
		MPL:       4,
		Shards:    4,
		Seed:      1,
		Faults:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range inj.Schedule() {
		if ps.Fired == 0 {
			t.Errorf("%s consulted %d times, never fired at rate 1", ps.Point, ps.Calls)
		}
		// The driver consults shard.stall once per applied operation,
		// under the stripe lock: a blocked or refused request, which
		// applies nothing, must not consult it.
		if ps.Point == fault.ShardStall && ps.Calls != int64(res.OpsExecuted) {
			t.Errorf("shard.stall consulted %d times for %d applied operations (%d blocks)", ps.Calls, res.OpsExecuted, res.Blocks)
		}
	}
}
