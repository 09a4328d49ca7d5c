package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Transaction is a totally ordered sequence of read/write operations
// issued under one transaction identifier (§2 of the paper; we follow
// its simplifying assumption that transactions are total orders).
type Transaction struct {
	ID  TxnID
	Ops []Op
}

// T builds a transaction from operations created with R and W,
// assigning the transaction ID and sequence numbers:
//
//	t1 := core.T(1, core.R("x"), core.W("x"), core.W("z"), core.R("y"))
func T(id TxnID, ops ...Op) *Transaction {
	if id <= 0 {
		panic(fmt.Sprintf("core: transaction ID must be positive, got %d", id))
	}
	t := &Transaction{ID: id, Ops: make([]Op, len(ops))}
	for i, o := range ops {
		o.Txn = id
		o.Seq = i
		t.Ops[i] = o
	}
	return t
}

// Len returns the number of operations.
func (t *Transaction) Len() int { return len(t.Ops) }

// Op returns the operation at 0-based sequence position seq.
func (t *Transaction) Op(seq int) Op { return t.Ops[seq] }

// String renders the transaction in paper notation, e.g.
// "r1[x] w1[x] w1[z] r1[y]".
func (t *Transaction) String() string {
	parts := make([]string, len(t.Ops))
	for i, o := range t.Ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, " ")
}

// ReadSet returns the distinct objects read, sorted.
func (t *Transaction) ReadSet() []string { return t.objectSet(ReadOp) }

// WriteSet returns the distinct objects written, sorted.
func (t *Transaction) WriteSet() []string { return t.objectSet(WriteOp) }

func (t *Transaction) objectSet(kind OpKind) []string {
	seen := make(map[string]bool)
	for _, o := range t.Ops {
		if o.Kind == kind {
			seen[o.Object] = true
		}
	}
	out := make([]string, 0, len(seen))
	for obj := range seen {
		out = append(out, obj)
	}
	sort.Strings(out)
	return out
}

// TxnSet is an immutable collection of transactions with dense global
// operation indexing. Every graph structure in this module addresses
// operations through the global index a TxnSet assigns:
// global(Ti, seq) = offset(Ti) + seq. Transactions also have a dense
// position, their rank in ID order, which indexes per-transaction
// tables (specification rows, clocks).
type TxnSet struct {
	txns   []*Transaction // sorted by ID
	pos    map[TxnID]int  // ID -> position in txns
	offset []int          // position -> global index of its first operation
	owner  []int32        // global index -> position of its transaction
}

// NewTxnSet validates and indexes a collection of transactions.
// Transaction IDs must be positive and distinct; every transaction must
// contain at least one operation.
func NewTxnSet(txns ...*Transaction) (*TxnSet, error) {
	ts := &TxnSet{
		txns:   slices.Clone(txns),
		pos:    make(map[TxnID]int, len(txns)),
		offset: make([]int, len(txns)),
	}
	for _, t := range ts.txns {
		if t == nil {
			return nil, fmt.Errorf("core: nil transaction in set")
		}
	}
	slices.SortFunc(ts.txns, func(a, b *Transaction) int { return cmp.Compare(a.ID, b.ID) })
	n := 0
	for k, t := range ts.txns {
		if t.ID <= 0 {
			return nil, fmt.Errorf("core: transaction ID %d is not positive", t.ID)
		}
		if k > 0 && ts.txns[k-1].ID == t.ID {
			return nil, fmt.Errorf("core: duplicate transaction ID %d", t.ID)
		}
		if len(t.Ops) == 0 {
			return nil, fmt.Errorf("core: transaction T%d has no operations", t.ID)
		}
		for i, o := range t.Ops {
			if o.Txn != t.ID || o.Seq != i {
				return nil, fmt.Errorf("core: operation %v of T%d has inconsistent identity (seq %d)", o, t.ID, i)
			}
			if o.Object == "" {
				return nil, fmt.Errorf("core: operation %d of T%d has empty object", i, t.ID)
			}
		}
		ts.pos[t.ID] = k
		ts.offset[k] = n
		n += len(t.Ops)
	}
	if len(ts.txns) == 0 {
		return nil, fmt.Errorf("core: empty transaction set")
	}
	ts.owner = make([]int32, 0, n)
	for k, t := range ts.txns {
		for range t.Ops {
			ts.owner = append(ts.owner, int32(k))
		}
	}
	return ts, nil
}

// MustTxnSet is NewTxnSet that panics on error; intended for tests and
// package-level fixtures.
func MustTxnSet(txns ...*Transaction) *TxnSet {
	ts, err := NewTxnSet(txns...)
	if err != nil {
		panic(err)
	}
	return ts
}

// Txns returns the transactions sorted by ID. Callers must not mutate
// the returned slice.
func (ts *TxnSet) Txns() []*Transaction { return ts.txns }

// sameTxns reports whether o holds transactions of the same IDs and
// lengths at the same positions, so tables indexed by position in one
// set address the same transactions in the other.
func (ts *TxnSet) sameTxns(o *TxnSet) bool {
	if ts == o {
		return true
	}
	if len(ts.txns) != len(o.txns) {
		return false
	}
	for k, t := range ts.txns {
		if u := o.txns[k]; u.ID != t.ID || u.Len() != t.Len() {
			return false
		}
	}
	return true
}

// Txn returns the transaction with the given ID, or nil if absent.
func (ts *TxnSet) Txn(id TxnID) *Transaction {
	if k, ok := ts.pos[id]; ok {
		return ts.txns[k]
	}
	return nil
}

// Has reports whether the set contains a transaction with the given ID.
func (ts *TxnSet) Has(id TxnID) bool { _, ok := ts.pos[id]; return ok }

// NumTxns returns the number of transactions.
func (ts *TxnSet) NumTxns() int { return len(ts.txns) }

// NumOps returns the total operation count across all transactions.
func (ts *TxnSet) NumOps() int { return len(ts.owner) }

// GlobalIndex maps (transaction, sequence) to the dense global index.
func (ts *TxnSet) GlobalIndex(id TxnID, seq int) int {
	k, ok := ts.pos[id]
	if !ok {
		panic(fmt.Sprintf("core: unknown transaction T%d", id))
	}
	if seq < 0 || seq >= ts.txns[k].Len() {
		panic(fmt.Sprintf("core: T%d has no operation %d", id, seq))
	}
	return ts.offset[k] + seq
}

// GlobalIndexOf maps an operation to its dense global index.
func (ts *TxnSet) GlobalIndexOf(o Op) int { return ts.GlobalIndex(o.Txn, o.Seq) }

// OpAt returns the operation with the given global index.
func (ts *TxnSet) OpAt(global int) Op {
	k := ts.owner[global]
	return ts.txns[k].Ops[global-ts.offset[k]]
}

// Objects returns all distinct objects referenced by any transaction,
// sorted.
func (ts *TxnSet) Objects() []string {
	seen := make(map[string]bool)
	for g := range ts.owner {
		seen[ts.OpAt(g).Object] = true
	}
	out := make([]string, 0, len(seen))
	for obj := range seen {
		out = append(out, obj)
	}
	sort.Strings(out)
	return out
}

// String lists the transactions, one per line.
func (ts *TxnSet) String() string {
	var sb strings.Builder
	for i, t := range ts.txns {
		if i > 0 {
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "T%d = %s", int(t.ID), t)
	}
	return sb.String()
}
