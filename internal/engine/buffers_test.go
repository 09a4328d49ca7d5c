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
// and follows every instance and its event buffer: a committed instance
// goes on the free list, an admission takes one from that list whenever
// it is not empty (keeping the buffer when it is large enough), and a
// new instance is allocated only for an empty list, so aborts, whose
// instances are left to the collector, are all that adds to the first
// MPL allocations.
func TestEventBuffersRecycled(t *testing.T) {
	w := denseMix(t)
	type freed struct {
		first *engine.Event
		cap   int
	}
	free := map[*engine.Instance]freed{} // committed and not yet reused
	allocated := 0
	hooks := engine.Hooks{
		Admit: func(st *engine.Instance) {
			n := st.Program.Len()
			buf := engine.EventBuf(st)
			if len(buf) != 0 || cap(buf) < n {
				t.Fatalf("instance %d admitted with a buffer of len %d cap %d for %d operations", st.ID, len(buf), cap(buf), n)
			}
			f, ok := free[st]
			if !ok {
				if len(free) > 0 {
					t.Fatalf("instance %d allocated while %d committed instances were free", st.ID, len(free))
				}
				allocated++
				return
			}
			delete(free, st)
			if f.cap >= n && f.first != &buf[:1][0] {
				t.Fatalf("instance %d lost its cap %d buffer for %d operations", st.ID, f.cap, n)
			}
			for _, o := range free {
				if f.cap < n && o.cap >= n {
					t.Fatalf("instance %d took a cap %d buffer while one of cap %d was free", st.ID, f.cap, o.cap)
				}
			}
		},
		Commit: func(st *engine.Instance) {
			buf := engine.EventBuf(st)
			free[st] = freed{&buf[:1][0], cap(buf)}
		},
	}
	res, _, err := w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{Seed: 1, MPL: 8, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts == 0 {
		t.Fatal("the dense mix must restart programs for this test to mean anything")
	}
	if allocated < 8 || allocated > 8+res.Aborts {
		t.Errorf("allocated %d instances over %d admissions with %d aborts, want 8 to %d", allocated, res.Committed+res.Aborts, res.Aborts, 8+res.Aborts)
	}
}
