package obs_test

// Flight-recorder ring tests: retention and ordering across
// wraparound, and the lock-free Emit/Snapshot discipline under -race.

import (
	"sync"
	"testing"

	"relser/internal/metrics"
	"relser/internal/obs"
	"relser/internal/trace"
)

// TestRecorderWraparoundOrdering overfills a small ring and checks the
// survivors are exactly the newest 8 events, still in emission
// order, with the overwrites counted as drops.
func TestRecorderWraparoundOrdering(t *testing.T) {
	reg := metrics.NewRegistry()
	r := obs.NewRecorder(8, reg)
	const total = 20
	for i := 0; i < total; i++ {
		r.Emit(trace.Event{Kind: trace.KindGrant, Order: int64(i)})
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("snapshot holds %d events, want the ring's 8", len(evs))
	}
	for i, ev := range evs {
		if want := int64(total - 8 + i); ev.Order != want {
			t.Fatalf("snapshot[%d].Order = %d, want %d (newest 8 in order)", i, ev.Order, want)
		}
	}
	if r.Recorded() != total {
		t.Errorf("Recorded = %d, want %d", r.Recorded(), total)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["obs.ring_recorded"]; got != total {
		t.Errorf("obs.ring_recorded = %d, want %d", got, total)
	}
	if got := snap.Counters["obs.ring_drops"]; got != total-8 {
		t.Errorf("obs.ring_drops = %d, want %d", got, total-8)
	}
}

// TestRecorderDefaultCap pins the zero-capacity default: an overfilled
// ring retains exactly DefaultRingCap events.
func TestRecorderDefaultCap(t *testing.T) {
	r := obs.NewRecorder(0, nil)
	for i := 0; i <= obs.DefaultRingCap; i++ {
		r.Emit(trace.Event{Kind: trace.KindGrant, Order: int64(i)})
	}
	if got := len(r.Snapshot()); got != obs.DefaultRingCap {
		t.Fatalf("default ring retains %d events, want %d", got, obs.DefaultRingCap)
	}
}

// TestRecorderConcurrentEmit races eight emitters against a snapshot
// reader. Under -race this pins the lock-free ring's claim/publish
// protocol; the assertions pin that snapshots taken mid-race stay
// bounded and per-emitter order survives the global sort.
func TestRecorderConcurrentEmit(t *testing.T) {
	reg := metrics.NewRegistry()
	r := obs.NewRecorder(64, reg)
	const emitters, perEmitter = 8, 500
	done := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if n := len(r.Snapshot()); n > 64 {
				t.Errorf("mid-race snapshot holds %d events, cap 64", n)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < perEmitter; j++ {
				r.Emit(trace.Event{Kind: trace.KindGrant, Instance: int64(g), Seq: j})
			}
		}(g)
	}
	wg.Wait()
	close(done)
	readerWG.Wait()
	if r.Recorded() != emitters*perEmitter {
		t.Errorf("Recorded = %d, want %d", r.Recorded(), emitters*perEmitter)
	}
	snap := r.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("final snapshot holds %d events, want a full ring of 64", len(snap))
	}
	// Each emitter wrote its Seq values in order, so within the
	// sequence-sorted snapshot every emitter's surviving events must
	// still be increasing.
	last := make(map[int64]int)
	for _, ev := range snap {
		if prev, ok := last[ev.Instance]; ok && ev.Seq <= prev {
			t.Fatalf("emitter %d out of order in snapshot: %d after %d", ev.Instance, ev.Seq, prev)
		}
		last[ev.Instance] = ev.Seq
	}
	s := reg.Snapshot()
	if rec, drop := s.Counters["obs.ring_recorded"], s.Counters["obs.ring_drops"]; rec != emitters*perEmitter || drop != rec-64 {
		t.Errorf("counters recorded=%d drops=%d, want %d and %d", rec, drop, emitters*perEmitter, emitters*perEmitter-64)
	}
}
