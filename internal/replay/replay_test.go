package replay_test

import (
	"maps"
	"math/rand"
	"testing"

	"relser/internal/core"
	"relser/internal/paperfig"
	"relser/internal/replay"
	"relser/internal/storage"
	"relser/internal/txn"
)

// sumSemantics writes (sum of values read so far) + 10*txnID: order
// sensitive, so different serializations produce different states.
type sumSemantics struct{}

func (sumSemantics) WriteValue(prog *core.Transaction, _ int, reads map[int]storage.Value) storage.Value {
	var sum storage.Value
	for _, v := range reads {
		sum += v
	}
	return sum + storage.Value(10*int(prog.ID))
}

// finalState replays the schedule and returns the store's contents.
func finalState(s *core.Schedule, sem txn.Semantics, initial map[string]storage.Value) map[string]storage.Value {
	store, _ := replay.Run(s, sem, initial)
	return store.Snapshot()
}

func TestReplayBasics(t *testing.T) {
	ts := core.MustTxnSet(
		core.T(1, core.R("x"), core.W("y")),
		core.T(2, core.R("y")),
	)
	s, err := core.ParseSchedule(ts, "r1[x] w1[y] r2[y]")
	if err != nil {
		t.Fatal(err)
	}
	store, events := replay.Run(s, sumSemantics{}, map[string]storage.Value{"x": 5})
	// r1[x] reads 5; w1[y] writes 5+10 = 15; r2[y] reads 15.
	if events[0].Value != 5 || events[1].Value != 15 || events[2].Value != 15 {
		t.Errorf("events = %+v", events)
	}
	if store.Read("y").Value != 15 {
		t.Errorf("final y = %d", store.Read("y").Value)
	}
}

func TestReplayDefaultSemantics(t *testing.T) {
	ts := core.MustTxnSet(core.T(1, core.W("x")))
	s, err := core.SerialSchedule(ts)
	if err != nil {
		t.Fatal(err)
	}
	snap := finalState(s, nil, nil)
	if snap["x"] != 1000 { // DefaultSemantics: txnID*1000 + seq
		t.Errorf("x = %d", snap["x"])
	}
}

// TestConflictEquivalentSchedulesSameState is the semantic theorem the
// E14 experiment leans on: conflict equivalence preserves final states
// under any read-driven deterministic semantics.
func TestConflictEquivalentSchedulesSameState(t *testing.T) {
	inst := paperfig.Figure1()
	initial := map[string]storage.Value{"x": 1, "y": 2, "z": 3}
	srs, s2 := inst.Schedules["Srs"], inst.Schedules["S2"]
	if !core.ConflictEquivalent(srs, s2) {
		t.Fatal("fixture assumption broken")
	}
	a := finalState(srs, sumSemantics{}, initial)
	b := finalState(s2, sumSemantics{}, initial)
	if !maps.Equal(a, b) {
		t.Errorf("conflict-equivalent schedules diverged:\n%v\n%v", a, b)
	}
}

func TestConflictSerializableMatchesWitnessState(t *testing.T) {
	// For conflict-serializable schedules, the serialization witness
	// must produce the identical state. Randomized.
	rng := rand.New(rand.NewSource(88))
	objects := []string{"x", "y", "z"}
	initial := map[string]storage.Value{"x": 1, "y": 2, "z": 3}
	checked := 0
	for trial := 0; trial < 200; trial++ {
		nTxn := 2 + rng.Intn(2)
		txns := make([]*core.Transaction, nTxn)
		for i := range txns {
			nOps := 1 + rng.Intn(3)
			ops := make([]core.Op, nOps)
			for k := range ops {
				obj := objects[rng.Intn(len(objects))]
				if rng.Intn(2) == 0 {
					ops[k] = core.R(obj)
				} else {
					ops[k] = core.W(obj)
				}
			}
			txns[i] = core.T(core.TxnID(i+1), ops...)
		}
		ts := core.MustTxnSet(txns...)
		cursors := make([]int, nTxn)
		ops := make([]core.Op, 0, ts.NumOps())
		for len(ops) < ts.NumOps() {
			k := rng.Intn(nTxn)
			if cursors[k] == txns[k].Len() {
				continue
			}
			ops = append(ops, txns[k].Op(cursors[k]))
			cursors[k]++
		}
		s := core.MustSchedule(ts, ops)
		if !core.IsConflictSerializable(s) {
			continue
		}
		checked++
		w, err := core.SerialWitness(s)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(finalState(s, sumSemantics{}, initial), finalState(w, sumSemantics{}, initial)) {
			t.Fatalf("trial %d: serializable schedule diverged from its witness\n%s", trial, s)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d serializable samples; generator too hot", checked)
	}
}

var _ txn.Semantics = sumSemantics{}
