package txn_test

import (
	"testing"

	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/txn"
	"relser/internal/workload"
)

// TestWALRecoveryMatchesLiveStore runs the banking workload with a WAL
// attached, then rebuilds a store from the log alone and compares it to
// the live store. The match relies on the runtime's recoverability
// layer: per object, overwriters commit after the transactions they
// overwrote, so replaying writes grouped by commit reproduces the
// physical final state.
func TestWALRecoveryMatchesLiveStore(t *testing.T) {
	for _, proto := range []string{"s2pl", "rsgt"} {
		for seed := int64(1); seed <= 3; seed++ {
			w, err := workload.Banking(workload.DefaultBankingConfig(), seed)
			if err != nil {
				t.Fatal(err)
			}
			var p sched.Protocol
			if proto == "s2pl" {
				p = sched.NewS2PL()
			} else {
				p = sched.NewRSGT(w.Oracle)
			}
			log := newTestLog(t)
			store := storage.NewStore()
			store.Load(w.Initial)
			r, err := txn.New(txn.Config{
				Protocol:  p,
				Programs:  w.Programs,
				Oracle:    w.Oracle,
				Store:     store,
				Semantics: w.Semantics,
				Seed:      seed,
				WAL:       log,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			recovered, report := recoverLog(t, log.bytes(t), w.Initial)
			if report.Committed != res.Committed {
				t.Errorf("%s/seed %d: recovery saw %d commits, runtime %d", proto, seed, report.Committed, res.Committed)
			}
			live := store.Snapshot()
			back := recovered.Snapshot()
			for obj, v := range live {
				if back[obj] != v {
					t.Errorf("%s/seed %d: %s = %d recovered, %d live", proto, seed, obj, back[obj], v)
				}
			}
			if w.Invariant != nil {
				if err := w.Invariant(back); err != nil {
					t.Errorf("%s/seed %d: recovered store violates invariant: %v", proto, seed, err)
				}
			}
		}
	}
}

// TestWALCrashMidRunKeepsPrefix simulates a crash by truncating the
// log at every byte boundary of its tail: recovery must always succeed
// and only ever reflect fully committed transactions.
func TestWALCrashMidRunKeepsPrefix(t *testing.T) {
	w, err := workload.LongLived(workload.DefaultLongLivedConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	log := newTestLog(t)
	store := storage.NewStore()
	store.Load(w.Initial)
	r, err := txn.New(txn.Config{
		Protocol:  sched.NewRSGT(w.Oracle),
		Programs:  w.Programs,
		Oracle:    w.Oracle,
		Store:     store,
		Semantics: w.Semantics,
		Seed:      2,
		WAL:       log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	full := log.bytes(t)
	_, fullReport := recoverLog(t, full, w.Initial)
	cuts := make([]int, 0, len(full)/13+2)
	for cut := 0; cut < len(full); cut += 13 { // prime stride over the log
		cuts = append(cuts, cut)
	}
	cuts = append(cuts, len(full)) // always test the intact log too
	prevCommitted := -1
	for _, cut := range cuts {
		_, report := recoverLog(t, full[:cut], w.Initial)
		if report.Committed < prevCommitted {
			t.Fatalf("cut %d: commits went backward (%d < %d)", cut, report.Committed, prevCommitted)
		}
		prevCommitted = report.Committed
		// Every recovered object value must be explainable: between the
		// initial value and the fully recovered one in commit count.
		if report.Committed > fullReport.Committed {
			t.Fatalf("cut %d: more commits than the full log", cut)
		}
	}
	if prevCommitted != fullReport.Committed {
		t.Errorf("final prefix recovered %d commits, full log %d", prevCommitted, fullReport.Committed)
	}
}

func TestConcurrentRunnerWAL(t *testing.T) {
	w, err := workload.Banking(workload.DefaultBankingConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	log := newTestLog(t)
	store := storage.NewStore()
	store.Load(w.Initial)
	r, err := txn.NewConcurrent(txn.Config{
		Protocol:  sched.NewS2PL(),
		Programs:  w.Programs,
		Oracle:    w.Oracle,
		Store:     store,
		Semantics: w.Semantics,
		MPL:       6,
		WAL:       log,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	recovered, report := recoverLog(t, log.bytes(t), w.Initial)
	if report.Committed != res.Committed {
		t.Errorf("recovery commits %d != runtime %d", report.Committed, res.Committed)
	}
	live := store.Snapshot()
	for obj, v := range recovered.Snapshot() {
		if live[obj] != v {
			t.Errorf("%s: recovered %d, live %d", obj, v, live[obj])
		}
	}
}
