package obs

import (
	"sort"
	"sync/atomic"

	"relser/internal/metrics"
	"relser/internal/trace"
)

// Recorder is the flight recorder: a fixed-size lock-free ring of trace
// events. Writers claim a slot by advancing an atomic cursor and
// publish the event with an atomic pointer store, so the hot path never
// takes a lock and -race sees only atomic operations. The ring holds
// the most recent Cap events; older entries are overwritten (counted as
// drops). Snapshot reassembles the survivors in emission order by the
// per-entry sequence number each writer stamped at claim time.
type Recorder struct {
	slots  []atomic.Pointer[ringEntry]
	cursor atomic.Uint64

	// recorded/drops are resolved once at construction; nil without a
	// registry.
	recorded *metrics.Counter
	drops    *metrics.Counter
}

// ringEntry pairs an event with the global sequence its writer claimed,
// so Snapshot can restore emission order after wraparound.
type ringEntry struct {
	seq uint64
	ev  trace.Event
}

// DefaultRingCap is the default flight-recorder capacity.
const DefaultRingCap = 1 << 14

// NewRecorder returns a recorder retaining the most recent capacity
// events (DefaultRingCap when capacity <= 0). The registry, when
// non-nil, receives the recorder's instruments.
func NewRecorder(capacity int, reg *metrics.Registry) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	r := &Recorder{slots: make([]atomic.Pointer[ringEntry], capacity)}
	if reg != nil {
		r.recorded = reg.Counter("obs.ring_recorded")
		r.drops = reg.Counter("obs.ring_drops")
	}
	return r
}

// Emit implements trace.Sink. Safe for concurrent use without external
// serialization.
func (r *Recorder) Emit(ev trace.Event) {
	seq := r.cursor.Add(1) - 1
	e := &ringEntry{seq: seq, ev: ev}
	if old := r.slots[seq%uint64(len(r.slots))].Swap(e); old != nil {
		r.drops.Inc()
	}
	r.recorded.Inc()
}

// Recorded returns the total number of events ever recorded (including
// those since overwritten).
func (r *Recorder) Recorded() uint64 { return r.cursor.Load() }

// Snapshot returns the retained events in emission order. Taken
// concurrently with writers it is a loosely consistent view: each slot
// is read atomically, entries are ordered by claim sequence, and an
// entry a racing writer replaced mid-snapshot simply appears with its
// newer payload.
func (r *Recorder) Snapshot() []trace.Event {
	entries := make([]*ringEntry, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	out := make([]trace.Event, len(entries))
	for i, e := range entries {
		out[i] = e.ev
	}
	return out
}
