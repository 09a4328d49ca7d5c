package storage

import (
	"strings"
	"sync"
	"testing"
)

func TestStoreReadWrite(t *testing.T) {
	st := NewStore()
	st.Load(map[string]Value{"x": 5})
	if got := st.Read("x"); got.Value != 5 || got.Version != 0 {
		t.Fatalf("Read = %+v", got)
	}
	prev := st.Write("x", 9)
	if prev.Value != 5 {
		t.Errorf("Write returned prev %+v", prev)
	}
	if got := st.Read("x"); got.Value != 9 || got.Version != 1 {
		t.Fatalf("after write Read = %+v", got)
	}
}

func TestStoreImplicitObjects(t *testing.T) {
	st := NewStore()
	if got := st.Read("ghost"); got.Value != 0 {
		t.Errorf("missing object read %+v, want zero value", got)
	}
	if snap := st.Snapshot(); len(snap) != 1 || snap["ghost"] != 0 {
		t.Errorf("Snapshot = %v, want the one implicit object", snap)
	}
}

func TestStoreLoadSnapshot(t *testing.T) {
	st := NewStore()
	st.Load(map[string]Value{"a": 1, "b": 2})
	snap := st.Snapshot()
	if snap["a"] != 1 || snap["b"] != 2 || len(snap) != 2 {
		t.Errorf("Snapshot = %v", snap)
	}
	// Snapshot is a copy.
	snap["a"] = 99
	if st.Read("a").Value != 1 {
		t.Error("Snapshot aliases store state")
	}
}

func TestUndoLogRollback(t *testing.T) {
	st := NewStore()
	st.Load(map[string]Value{"x": 1, "y": 2})
	var log UndoLog
	log.WriteLogged(st, "x", 10)
	log.WriteLogged(st, "y", 20)
	log.WriteLogged(st, "x", 30) // second write to x
	if len(log.entries) != 3 {
		t.Fatalf("%d logged writes, want 3", len(log.entries))
	}
	RollbackSet(st, []*UndoLog{&log})
	if st.Read("x").Value != 1 || st.Read("y").Value != 2 {
		t.Errorf("rollback failed: %s", st)
	}
	if len(log.entries) != 0 {
		t.Error("rollback should clear the log")
	}
	// Versions move forward even on undo.
	if st.Read("x").Version == 0 {
		t.Error("undo must not rewind versions")
	}
}

func TestUndoLogDiscard(t *testing.T) {
	st := NewStore()
	var log UndoLog
	log.WriteLogged(st, "x", 7)
	log.Discard()
	RollbackSet(st, []*UndoLog{&log}) // no-op
	if st.Read("x").Value != 7 {
		t.Error("Discard should keep effects")
	}
}

func TestRollbackSetInterleavedWrites(t *testing.T) {
	// A writes x, B overwrites x, both abort: the final value must be
	// the original, regardless of per-log order.
	st := NewStore()
	st.Load(map[string]Value{"x": 1})
	var logA, logB UndoLog
	logA.WriteLogged(st, "x", 10) // x: 1 -> 10
	logB.WriteLogged(st, "x", 20) // x: 10 -> 20
	logA.WriteLogged(st, "x", 30) // x: 20 -> 30 (A again)
	RollbackSet(st, []*UndoLog{&logA, &logB})
	if got := st.Read("x").Value; got != 1 {
		t.Errorf("x = %d after set rollback, want 1", got)
	}
}

func TestRollbackSetOrderIndependence(t *testing.T) {
	st := NewStore()
	st.Load(map[string]Value{"x": 5, "y": 7})
	var logA, logB UndoLog
	logB.WriteLogged(st, "y", 70)
	logA.WriteLogged(st, "x", 50)
	logB.WriteLogged(st, "x", 51)
	// Pass logs in "wrong" order; sequence numbers fix it.
	RollbackSet(st, []*UndoLog{&logB, &logA})
	if st.Read("x").Value != 5 || st.Read("y").Value != 7 {
		t.Errorf("rollback set wrong: %s", st)
	}
}

func TestStoreStats(t *testing.T) {
	st := NewStore()
	st.Read("a")
	st.Write("a", 1)
	st.Write("b", 2)
	r, w := st.Stats()
	if r != 1 || w != 2 {
		t.Errorf("Stats = (%d, %d)", r, w)
	}
}

func TestStoreString(t *testing.T) {
	st := NewStore()
	st.Load(map[string]Value{"b": 2, "a": 1})
	if got := st.String(); !strings.Contains(got, "a=1") || !strings.Contains(got, "b=2") {
		t.Errorf("String = %q", got)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	// The store latch must keep individual operations atomic under the
	// race detector.
	st := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st.Write("shared", Value(g*1000+i))
				st.Read("shared")
			}
		}(g)
	}
	wg.Wait()
	_, w := st.Stats()
	if w != 8*200 {
		t.Errorf("writes = %d, want %d", w, 8*200)
	}
}
