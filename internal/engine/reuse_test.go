package engine_test

import (
	"fmt"
	"maps"
	"testing"

	"relser/internal/engine"
	"relser/internal/fault"
	"relser/internal/replay"
	"relser/internal/sched"
	"relser/internal/workload"
)

// TestRecycledInstancesKeepDataExact runs the relative mix (units of 4
// operations) and banking under RSGT on both drivers with dirty reads,
// cascades and injected txn.abort faults, seeds 1-5, so that nearly
// every admission reuses a committed instance. Each admitted instance
// must start empty — no reads, writes, dirty-read dependencies or
// before-images, at its first operation — and the final store must
// equal a replay of the committed schedule from the initial state: an
// instance that carried a write or a read of its previous incarnation
// would compute, commit or roll back a value that no committed
// operation made.
func TestRecycledInstancesKeepDataExact(t *testing.T) {
	mix := func(seed int64) (*workload.Workload, error) {
		return workload.Synthetic(workload.SyntheticConfig{
			Objects: 128, Programs: 96, OpsPerTxn: 16, WriteRatio: 0.25, Granularity: 4,
		}, seed)
	}
	banking := func(seed int64) (*workload.Workload, error) {
		return workload.Banking(workload.BankingConfig{
			Families: 8, AccountsPerFamily: 3, Customers: 48,
			CreditAudits: 6, FamiliesPerAudit: 2, BankAudits: 1,
			CrossingAudits: true, InitialBalance: 100,
		}, seed)
	}
	for _, wl := range []struct {
		name string
		gen  func(int64) (*workload.Workload, error)
	}{{"mix-g4", mix}, {"banking", banking}} {
		var total recycledRun
		for _, concurrent := range []bool{false, true} {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("%s/concurrent=%v/seed=%d", wl.name, concurrent, seed), func(t *testing.T) {
					w, err := wl.gen(seed)
					if err != nil {
						t.Fatal(err)
					}
					r := checkRecycledRun(t, w, seed, concurrent)
					total.dirty += r.dirty
					total.cascaded += r.cascaded
				})
			}
		}
		t.Logf("%s: %d dirty-data dependencies, %d cascaded victims", wl.name, total.dirty, total.cascaded)
		if total.dirty == 0 || total.cascaded == 0 {
			t.Errorf("%s: %d dirty-data dependencies and %d cascaded victims over all runs, want both > 0", wl.name, total.dirty, total.cascaded)
		}
	}
}

// recycledRun counts what a run exercised: applied operations that
// left their instance depending on uncommitted data, and victims
// aborted because an instance they depended on aborted.
type recycledRun struct{ dirty, cascaded int }

func checkRecycledRun(t *testing.T, w *workload.Workload, seed int64, concurrent bool) recycledRun {
	t.Helper()
	var r recycledRun
	seen := map[*engine.Instance]bool{}
	reused := 0
	// dependents mirrors the engine's dirty-data graph from the hooks:
	// an instance still live when one it depends on aborts is a
	// co-victim of that abort's cascade.
	dependents := map[int64]map[int64]bool{}
	live := map[int64]bool{}
	hooks := engine.Hooks{
		Admit: func(st *engine.Instance) {
			if seen[st] {
				reused++
			}
			seen[st] = true
			live[st.ID] = true
			if len(st.Reads) != 0 || len(st.Writes) != 0 || len(st.DepsOn) != 0 || engine.UndoLen(st) != 0 || st.Next != 0 || st.Done || st.Doomed.Load() {
				t.Errorf("instance %d admitted with %d reads, %d writes, %d dependencies, %d before-images, next %d, done %v, doomed %v",
					st.ID, len(st.Reads), len(st.Writes), len(st.DepsOn), engine.UndoLen(st), st.Next, st.Done, st.Doomed.Load())
			}
		},
		Apply: func(st *engine.Instance) {
			for on := range st.DepsOn {
				if dependents[on] == nil {
					dependents[on] = map[int64]bool{}
				}
				dependents[on][st.ID] = true
			}
			if len(st.DepsOn) > 0 {
				r.dirty++
			}
		},
		Commit: func(st *engine.Instance) {
			delete(live, st.ID)
			delete(dependents, st.ID)
		},
		Abort: func(st *engine.Instance) {
			delete(live, st.ID)
			for d := range dependents[st.ID] {
				if live[d] {
					r.cascaded++
				}
			}
			delete(dependents, st.ID)
		},
	}
	res, store, err := w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{
		Seed: seed, MPL: 8, Concurrent: concurrent, Hooks: hooks,
		Faults: fault.New(seed, fault.MustParseSpec("txn.abort:0.01")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts == 0 || reused < res.Committed/2 {
		t.Fatalf("%d aborts, %d of %d admissions reused an instance: the run must restart programs and recycle instances to mean anything",
			res.Aborts, reused, res.Committed+res.Aborts)
	}
	s, _, err := res.CommittedSchedule()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := replay.Run(s, w.Semantics, w.Initial)
	if got, want := store.Snapshot(), want.Snapshot(); !maps.Equal(got, want) {
		for obj, v := range want {
			if got[obj] != v {
				t.Errorf("%s: store %d, replay of the committed schedule %d", obj, got[obj], v)
			}
		}
		t.Fatalf("final store differs from the replay of the committed schedule (%d commits, %d aborts)", res.Committed, res.Aborts)
	}
	return r
}
