// Package replay executes a concrete schedule — in exactly its given
// interleaving — against a fresh store with caller-supplied write
// semantics, yielding the final database state and the per-operation
// values. It is the semantic microscope of the module: where the
// classes of internal/core say which interleavings are *admissible*,
// replay shows what an interleaving *does* to the data.
//
// Two facts it makes tangible (experiment E14):
//
//   - conflict-equivalent schedules produce identical states (conflict
//     equivalence preserves reads-from, hence every computed write);
//   - relatively serializable schedules may produce states that no
//     serial execution produces — the paper's relaxation is semantically
//     real, and accepting it is exactly the user's declared intent.
package replay

import (
	"relser/internal/core"
	"relser/internal/storage"
	"relser/internal/txn"
)

// Event records one executed operation and the value it read or wrote.
type Event struct {
	Op    core.Op
	Value storage.Value
}

// Run executes the schedule in order. Writes compute their values via
// sem from the values the same transaction has read so far; reads
// return the current store value.
func Run(s *core.Schedule, sem txn.Semantics, initial map[string]storage.Value) (*storage.Store, []Event) {
	if sem == nil {
		sem = txn.DefaultSemantics{}
	}
	store := storage.NewStore()
	store.Load(initial)
	reads := make(map[core.TxnID]map[int]storage.Value)
	events := make([]Event, 0, s.Len())
	ts := s.Set()
	for pos := 0; pos < s.Len(); pos++ {
		op := s.At(pos)
		if reads[op.Txn] == nil {
			reads[op.Txn] = make(map[int]storage.Value)
		}
		var v storage.Value
		if op.Kind == core.ReadOp {
			v = store.Read(op.Object).Value
			reads[op.Txn][op.Seq] = v
		} else {
			v = sem.WriteValue(ts.Txn(op.Txn), op.Seq, reads[op.Txn])
			store.Write(op.Object, v)
		}
		events = append(events, Event{Op: op, Value: v})
	}
	return store, events
}
