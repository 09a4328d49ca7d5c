package txn

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"relser/internal/core"
	"relser/internal/engine"
)

// scanQueue is the tick driver's former admission queue, kept as the
// reference: one arrival-ordered list, rescanned in full on every
// admission round, admitting each entry whose readyAt has come until
// the limit is reached.
type scanQueue struct {
	pending []scanEntry
}

type scanEntry struct {
	pp      engine.Pending
	readyAt int
}

func (q *scanQueue) admit(now, free int) []*core.Transaction {
	var got []*core.Transaction
	rest := q.pending[:0]
	for i, e := range q.pending {
		if len(got) >= free || e.readyAt > now {
			rest = append(rest, q.pending[i])
			continue
		}
		got = append(got, e.pp.Program)
	}
	q.pending = rest
	return got
}

// popUpTo admits from q as Runner.admit does.
func popUpTo(q *admissionQueue, now, free int) []*core.Transaction {
	var got []*core.Transaction
	for ; free > 0; free-- {
		pp, ok := q.pop(now)
		if !ok {
			break
		}
		got = append(got, pp.Program)
	}
	return got
}

// queuePair drives the admission queue and the reference scan with the
// same operations and fails on the first admission round where they
// differ.
type queuePair struct {
	t      *testing.T
	q      admissionQueue
	ref    scanQueue
	now    int
	nextID core.TxnID
}

func newQueuePair(t *testing.T, initial int) *queuePair {
	p := &queuePair{t: t}
	var progs []*core.Transaction
	for i := 0; i < initial; i++ {
		progs = append(progs, p.program())
	}
	p.q = admissionQueue{programs: progs}
	for _, prog := range progs {
		p.ref.pending = append(p.ref.pending, scanEntry{pp: engine.Pending{Program: prog}})
	}
	return p
}

func (p *queuePair) program() *core.Transaction {
	p.nextID++
	return core.T(p.nextID, core.R("x"))
}

// requeue queues a fresh restart eligible at p.now+delay and returns it.
func (p *queuePair) requeue(delay int) *core.Transaction {
	prog := p.program()
	pp := engine.Pending{Program: prog, Restarts: 1}
	p.q.requeue(pp, p.now+delay)
	p.ref.pending = append(p.ref.pending, scanEntry{pp: pp, readyAt: p.now + delay})
	return prog
}

// admit runs one admission round on both queues, requires the same
// programs in the same order, and returns them.
func (p *queuePair) admit(free int) []*core.Transaction {
	p.t.Helper()
	want := p.ref.admit(p.now, free)
	got := popUpTo(&p.q, p.now, free)
	if !slices.Equal(got, want) {
		p.t.Fatalf("tick %d, %d free: admitted %v, the scan admits %v", p.now, free, ids(got), ids(want))
	}
	if p.q.len() != len(p.ref.pending) {
		p.t.Fatalf("tick %d: %d queued, the scan holds %d", p.now, p.q.len(), len(p.ref.pending))
	}
	return got
}

func ids(progs []*core.Transaction) []core.TxnID {
	out := make([]core.TxnID, len(progs))
	for i, p := range progs {
		out[i] = p.ID
	}
	return out
}

// TestAdmissionQueueMatchesScan runs random requeue / admit / advance
// sequences through the queue and the reference scan and requires
// identical admission sequences.
func TestAdmissionQueueMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := newQueuePair(t, rng.Intn(32))
			admitted := 0
			for step := 0; step < 10000; step++ {
				switch op := rng.Intn(10); {
				case op < 4:
					p.requeue(rng.Intn(65))
				case op < 7:
					admitted += len(p.admit(rng.Intn(9)))
				default:
					p.now += rng.Intn(4)
				}
			}
			if admitted == 0 {
				t.Fatal("no program was admitted")
			}
		})
	}
}

// TestAdmissionQueueOrderCases pins the two orderings a queue keyed by
// ready tick alone would get wrong.
func TestAdmissionQueueOrderCases(t *testing.T) {
	t.Run("earlier arrival due later goes first", func(t *testing.T) {
		p := newQueuePair(t, 0)
		early := p.requeue(6)
		p.requeue(3)
		p.requeue(3)
		p.now = 3
		p.admit(1) // the first of the two due at 3; the other waits in ready
		p.now = 6
		if got := p.admit(1); got[0] != early {
			t.Fatalf("admitted %v, want T%d: it arrived first", ids(got), early.ID)
		}
		p.admit(1)
	})
	t.Run("due restart waits behind never-started programs", func(t *testing.T) {
		p := newQueuePair(t, 3)
		r := p.requeue(0)
		got := p.admit(2)
		if slices.Contains(got, r) {
			t.Fatalf("restart T%d overtook a never-started program: %v", r.ID, ids(got))
		}
		if got := p.admit(2); got[1] != r {
			t.Fatalf("admitted %v, want the restart T%d after the last never-started program", ids(got), r.ID)
		}
	})
}
