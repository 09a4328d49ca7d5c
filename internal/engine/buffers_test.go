package engine_test

import (
	"testing"

	"relser/internal/engine"
	"relser/internal/sched"
	"relser/internal/workload"
)

// denseMix is the decision goldens' restart-heavy mix: 128 objects, 96
// programs of 16 operations, 25 % writes, units of 4 operations.
func denseMix(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Objects: 128, Programs: 96, OpsPerTxn: 16, WriteRatio: 0.25, Granularity: 4,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestResultSizedFromPrograms checks that a completed run's committed
// record was allocated once, at its final size, on both drivers.
func TestResultSizedFromPrograms(t *testing.T) {
	w := denseMix(t)
	ops := 0
	for _, p := range w.Programs {
		ops += p.Len()
	}
	for _, concurrent := range []bool{false, true} {
		res, _, err := w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{Seed: 1, MPL: 8, Concurrent: concurrent})
		if err != nil {
			t.Fatalf("concurrent=%v: %v", concurrent, err)
		}
		for _, c := range []struct {
			name     string
			len, cap int
			want     int
		}{
			{"Trace", len(res.Trace), cap(res.Trace), ops},
			{"Spans", len(res.Spans), cap(res.Spans), len(w.Programs)},
			{"Programs", len(res.Programs), cap(res.Programs), len(w.Programs)},
		} {
			if c.len != c.want || c.cap != c.want {
				t.Errorf("concurrent=%v: %s len %d cap %d, want both %d", concurrent, c.name, c.len, c.cap, c.want)
			}
		}
	}
}

// TestEventBuffersRecycled runs the restart-heavy mix on the tick driver
// and follows every event buffer: one freed by a commit or an abort and
// large enough for the next admitted program must be the one that
// program gets.
func TestEventBuffersRecycled(t *testing.T) {
	w := denseMix(t)
	free := map[*engine.Event]int{} // freed and not yet reused: first slot -> capacity
	reused := 0
	release := func(st *engine.Instance) {
		buf := engine.EventBuf(st)
		free[&buf[:1][0]] = cap(buf)
	}
	hooks := engine.Hooks{
		Admit: func(st *engine.Instance) {
			buf := engine.EventBuf(st)
			if len(buf) != 0 || cap(buf) < st.Program.Len() {
				t.Fatalf("instance %d admitted with a buffer of len %d cap %d for %d operations", st.ID, len(buf), cap(buf), st.Program.Len())
			}
			first := &buf[:1][0]
			if _, ok := free[first]; ok {
				delete(free, first)
				reused++
				return
			}
			for _, c := range free {
				if c >= st.Program.Len() {
					t.Fatalf("instance %d got a new buffer while a freed one of cap %d was free", st.ID, c)
				}
			}
		},
		Commit: release,
		Abort:  release,
	}
	res, _, err := w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{Seed: 1, MPL: 8, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts == 0 {
		t.Fatal("the dense mix must restart programs for this test to mean anything")
	}
	// Only the first MPL admissions find the free list empty.
	if want := res.Committed + res.Aborts - 8; reused != want {
		t.Errorf("reused %d buffers over %d admissions, want %d", reused, res.Committed+res.Aborts, want)
	}
}
