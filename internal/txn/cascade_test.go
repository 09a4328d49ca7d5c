package txn_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"relser/internal/core"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/txn"
)

// recordingProto wraps a protocol to remember which program every
// instance (across restarts) belongs to, so WAL records can be
// attributed to programs after the run. Wrapping also hides the inner
// protocol's ShardSafe marker, which is irrelevant here.
type recordingProto struct {
	sched.Protocol
	mu   sync.Mutex
	prog map[int64]core.TxnID
}

func (p *recordingProto) Begin(id int64, t *core.Transaction) {
	p.mu.Lock()
	p.prog[id] = t.ID
	p.mu.Unlock()
	p.Protocol.Begin(id, t)
}

func (p *recordingProto) programOf(id int64) core.TxnID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.prog[id]
}

// pacedSemantics slows one program's writes so its transaction is
// genuinely long-lived on the wall clock: without it the whole program
// can execute before the other workers' goroutines are even scheduled,
// and no interleaving (hence no dirty-read chain) ever forms.
type pacedSemantics struct {
	txn.DefaultSemantics
	slow core.TxnID
}

func (s pacedSemantics) WriteValue(prog *core.Transaction, seq int, reads map[int]storage.Value) storage.Value {
	if prog.ID == s.slow {
		time.Sleep(20 * time.Microsecond)
	}
	return s.DefaultSemantics.WriteValue(prog, seq, reads)
}

// fillers returns n writes to objects private to the given program.
func fillers(pid core.TxnID, n int) []core.Op {
	ops := make([]core.Op, n)
	for i := range ops {
		ops[i] = core.W(string(rune('f')) + string(rune('0'+pid)) + "_" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
	}
	return ops
}

// TestConcurrentCascadingAbortDepth3 forces a transitive abort of a
// dirty-read chain of depth 3 on the concurrent driver and checks the
// WAL tells the truth about it. Under NoCC every operation is granted
// immediately, so the chain forms organically:
//
//	T1: w(x) + a long filler tail   — cannot commit before its deadline,
//	T2: fillers, r(x), w(y)         — reads x while T1's write is dirty,
//	T3: fillers, r(y), w(z)         — reads y while T2's write is dirty,
//
// T2 and T3 finish quickly and park on their dirty-read dependencies;
// T1's long tail overruns Config.Deadline mid-program, and the driver's
// timeout abort must cascade over both readers. The cascade's abort
// records are written consecutively (the driver holds the exclusive
// state lock across the whole cascade), and a commit record must never
// exist for any cascaded victim — every program's eventual commit comes
// from a fresh instance.
//
// Real goroutine scheduling decides whether the reads land on dirty
// data in a given round, so each attempt is only required to be
// *correct*; the depth-3 cascade must show up within the attempt
// budget (the first attempt almost always produces it).
func TestConcurrentCascadingAbortDepth3(t *testing.T) {
	// T1 is all tail: 40 operations against a 45-tick deadline, so it
	// commits solo but overruns as soon as the readers' ops interleave.
	// T2/T3 carry leading fillers (to land their reads after the writes
	// they chase) and trailing fillers (to keep foreign ticks flowing
	// while T1 is mid-tail) but stay short enough to commit pairwise.
	t1Ops := append([]core.Op{core.W("x")}, fillers(1, 39)...)
	t2Ops := append(append(fillers(2, 1), core.R("x"), core.W("y")), fillers(2, 10)...)
	t3Ops := append(append(fillers(3, 4), core.R("y"), core.W("z")), fillers(3, 10)...)
	sawCascade := false
	for attempt := 0; attempt < 10 && !sawCascade; attempt++ {
		progs := []*core.Transaction{
			core.T(1, t1Ops...),
			core.T(2, t2Ops...),
			core.T(3, t3Ops...),
		}
		proto := &recordingProto{Protocol: sched.NewNoCC(), prog: map[int64]core.TxnID{}}
		log := newTestLog(t)
		r, err := txn.NewConcurrent(txn.Config{
			Protocol:    proto,
			Programs:    progs,
			Semantics:   pacedSemantics{slow: 1},
			MPL:         8,
			Seed:        int64(attempt + 1),
			Deadline:    45,
			MaxRestarts: 500,
			WAL:         log,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if res.Committed != 3 {
			t.Fatalf("attempt %d: committed %d of 3", attempt, res.Committed)
		}
		if res.DeadlineAborts == 0 {
			t.Fatalf("attempt %d: T1 never overran its deadline", attempt)
		}
		_, framed, tail, err := storage.ScanSegment(bytes.NewReader(log.bytes(t)))
		if err != nil || tail.Tail != storage.TailClean {
			t.Fatalf("attempt %d: WAL: %v (%s tail)", attempt, err, tail.Tail)
		}
		recs := make([]storage.WALRecord, len(framed))
		for i, fr := range framed {
			recs[i] = fr.Rec
		}

		committed := map[int64]bool{}
		aborted := map[int64]bool{}
		for _, rec := range recs {
			switch rec.Kind {
			case storage.WALCommit:
				committed[rec.Instance] = true
			case storage.WALAbort:
				aborted[rec.Instance] = true
			}
		}
		// A cascaded victim must never have a commit record.
		commitProgs := map[core.TxnID]bool{}
		for id := range committed {
			if aborted[id] {
				t.Fatalf("attempt %d: instance %d has both commit and abort records", attempt, id)
			}
			commitProgs[proto.programOf(id)] = true
		}
		if len(committed) != 3 || len(commitProgs) != 3 {
			t.Fatalf("attempt %d: want one commit per program, got instances %v", attempt, committed)
		}

		// The depth-3 cascade: three consecutive abort records covering
		// programs 1, 2 and 3 (the driver writes a cascade's aborts in one
		// critical section, so interleaved records would disprove it).
		for i := 0; i+2 < len(recs); i++ {
			ps := map[core.TxnID]bool{}
			run := true
			for j := i; j < i+3; j++ {
				if recs[j].Kind != storage.WALAbort {
					run = false
					break
				}
				ps[proto.programOf(recs[j].Instance)] = true
			}
			if run && ps[1] && ps[2] && ps[3] {
				sawCascade = true
				break
			}
		}
	}
	if !sawCascade {
		t.Fatal("no depth-3 consecutive abort cascade covering T1,T2,T3 in any attempt")
	}
}
