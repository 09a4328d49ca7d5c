package core

import (
	"fmt"
	"strings"
)

// Schedule is a total order over all operations of a TxnSet that
// preserves each transaction's program order (§2). Schedules are
// immutable once constructed.
type Schedule struct {
	set   *TxnSet
	seq   []int // position -> global op index
	posOf []int // global op index -> position
}

// NewSchedule validates that ops is a complete interleaving of the
// transaction set: every operation appears exactly once and program
// order is preserved.
func NewSchedule(ts *TxnSet, ops []Op) (*Schedule, error) {
	return NewScheduleFunc(ts, len(ops), func(pos int) Op { return ops[pos] })
}

// NewScheduleFunc is NewSchedule over the operations at(0), …,
// at(length-1), for a caller that holds them in another form (the
// events of a trace) and need not copy them out.
func NewScheduleFunc(ts *TxnSet, length int, at func(pos int) Op) (*Schedule, error) {
	n := ts.NumOps()
	if length != n {
		return nil, fmt.Errorf("core: schedule has %d operations, transaction set has %d", length, n)
	}
	idx := make([]int, 2*n)
	s := &Schedule{set: ts, seq: idx[:n:n], posOf: idx[n:]}
	nextSeq := make([]int, ts.NumTxns()) // by transaction position
	for pos := range n {
		o := at(pos)
		k, ok := ts.pos[o.Txn]
		if !ok {
			return nil, fmt.Errorf("core: schedule position %d: unknown transaction T%d", pos, o.Txn)
		}
		t, seq := ts.txns[k], nextSeq[k]
		if seq >= t.Len() {
			return nil, fmt.Errorf("core: schedule position %d: T%d has only %d operations", pos, o.Txn, seq)
		}
		want := t.Ops[seq]
		// Operations may be identified fully (Txn, Seq) or by shape only
		// (Seq zero, as produced by the schedule parser); either way the
		// next program-order operation of the transaction must match.
		if o.Seq != seq && o.Seq != 0 {
			return nil, fmt.Errorf("core: schedule position %d: %v out of program order (expected seq %d of T%d)", pos, o, seq, o.Txn)
		}
		if o.Kind != want.Kind || o.Object != want.Object {
			return nil, fmt.Errorf("core: schedule position %d: got %s%d[%s], program order expects %v", pos, o.Kind, int(o.Txn), o.Object, want)
		}
		g := ts.offset[k] + seq
		nextSeq[k]++
		s.seq[pos] = g
		s.posOf[g] = pos
	}
	for k, t := range ts.Txns() {
		if nextSeq[k] != t.Len() {
			return nil, fmt.Errorf("core: schedule is missing operations of T%d", t.ID)
		}
	}
	return s, nil
}

// MustSchedule is NewSchedule that panics on error; intended for tests
// and fixtures.
func MustSchedule(ts *TxnSet, ops []Op) *Schedule {
	s, err := NewSchedule(ts, ops)
	if err != nil {
		panic(err)
	}
	return s
}

// SerialSchedule builds the serial schedule executing whole
// transactions in the given ID order. Omitting order executes
// transactions in ascending ID order.
func SerialSchedule(ts *TxnSet, order ...TxnID) (*Schedule, error) {
	if len(order) == 0 {
		for _, t := range ts.Txns() {
			order = append(order, t.ID)
		}
	}
	if len(order) != ts.NumTxns() {
		return nil, fmt.Errorf("core: serial order names %d transactions, set has %d", len(order), ts.NumTxns())
	}
	seen := make(map[TxnID]bool, len(order))
	ops := make([]Op, 0, ts.NumOps())
	for _, id := range order {
		t := ts.Txn(id)
		if t == nil {
			return nil, fmt.Errorf("core: serial order names unknown transaction T%d", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("core: serial order repeats T%d", id)
		}
		seen[id] = true
		ops = append(ops, t.Ops...)
	}
	return NewSchedule(ts, ops)
}

// Set returns the underlying transaction set.
func (s *Schedule) Set() *TxnSet { return s.set }

// Len returns the number of operations in the schedule.
func (s *Schedule) Len() int { return len(s.seq) }

// At returns the operation at schedule position pos (0-based).
func (s *Schedule) At(pos int) Op { return s.set.OpAt(s.seq[pos]) }

// GlobalAt returns the global operation index at schedule position pos.
func (s *Schedule) GlobalAt(pos int) int { return s.seq[pos] }

// Pos returns the schedule position of an operation.
func (s *Schedule) Pos(o Op) int { return s.posOf[s.set.GlobalIndexOf(o)] }

// PosOfGlobal returns the schedule position of the operation with the
// given global index.
func (s *Schedule) PosOfGlobal(g int) int { return s.posOf[g] }

// Precedes reports whether a occurs before b in the schedule.
func (s *Schedule) Precedes(a, b Op) bool { return s.Pos(a) < s.Pos(b) }

// Ops returns the operations in schedule order.
func (s *Schedule) Ops() []Op {
	out := make([]Op, len(s.seq))
	for i, g := range s.seq {
		out[i] = s.set.OpAt(g)
	}
	return out
}

// String renders the schedule in paper notation:
// "r2[y] r1[x] w1[x] ...".
func (s *Schedule) String() string {
	parts := make([]string, len(s.seq))
	for i, g := range s.seq {
		parts[i] = s.set.OpAt(g).String()
	}
	return strings.Join(parts, " ")
}

// IsSerial reports whether the schedule executes transactions one
// after another with no interleaving.
func (s *Schedule) IsSerial() bool {
	seen := make(map[TxnID]bool)
	var current TxnID
	for pos := range s.seq {
		o := s.At(pos)
		if o.Txn == current {
			continue
		}
		if seen[o.Txn] {
			return false
		}
		seen[o.Txn] = true
		current = o.Txn
	}
	return true
}

// ConflictPair is an ordered pair of conflicting operations: First
// precedes Second in the schedule that produced the pair.
type ConflictPair struct {
	First, Second Op
}

// ConflictPairs returns every ordered conflicting pair of the schedule,
// in lexicographic (first position, second position) order.
func (s *Schedule) ConflictPairs() []ConflictPair {
	var out []ConflictPair
	n := s.Len()
	for i := 0; i < n; i++ {
		oi := s.At(i)
		for j := i + 1; j < n; j++ {
			oj := s.At(j)
			if oi.ConflictsWith(oj) {
				out = append(out, ConflictPair{First: oi, Second: oj})
			}
		}
	}
	return out
}

// ConflictEquivalent reports whether two schedules over the same
// transaction set order every conflicting pair identically (§2).
func ConflictEquivalent(a, b *Schedule) bool {
	if a.set != b.set {
		// Different TxnSet pointers may still describe identical sets;
		// we require structural equality of the op universe.
		if a.set.NumOps() != b.set.NumOps() {
			return false
		}
		for g := 0; g < a.set.NumOps(); g++ {
			if a.set.OpAt(g) != b.set.OpAt(g) {
				return false
			}
		}
	}
	n := a.Len()
	if b.Len() != n {
		return false
	}
	for i := 0; i < n; i++ {
		oi := a.At(i)
		for j := i + 1; j < n; j++ {
			oj := a.At(j)
			if oi.ConflictsWith(oj) && !b.Precedes(oi, oj) {
				return false
			}
		}
	}
	return true
}
