package core

import (
	"fmt"
	"slices"
	"strings"
)

// Spec holds the relative atomicity specifications for a transaction
// set: for every ordered pair (Ti, Tj) with i ≠ j, Atomicity(Ti, Tj)
// partitions Ti's operations into an ordered sequence of atomic units.
// Operations of Tj may not execute inside an atomic unit of Ti relative
// to Tj (Definition 1), except under the paper's depends-on relaxation
// (Definition 2).
//
// Internally a pair's partition is stored as its cuts (UnitBounds's
// convention), each in (0, len(Ti)). No cuts means Ti is a single
// atomic unit relative to Tj, the default for every pair. The
// distinct slices sit in one table, and a pair holds the index of its
// slice in one row per transaction, indexed by the TxnSet positions of
// Ti and Tj; a transaction that is one unit relative to everyone has no
// row, so the absolute specification costs O(#transactions), and a
// pair costs 4 bytes however many pairs share one slice.
type Spec struct {
	set *TxnSet
	// cuts[idx[i][j]] = boundaries of Atomicity(T_i, T_j); idx[i] nil if
	// T_i has none. cuts[0] is nil, the single unit. A slice is never
	// edited in place: an edit of a pair stores a new one.
	idx  [][]int32
	cuts [][]int
	// Slices from cuts[shared] on belong to one pair each, so an edit of
	// that pair may replace its slice in the table.
	shared int32
}

// NewSpec returns the absolute-atomicity specification for the set:
// every transaction is a single atomic unit relative to every other.
func NewSpec(ts *TxnSet) *Spec {
	return &Spec{set: ts, idx: make([][]int32, ts.NumTxns()), cuts: [][]int{nil}, shared: 1}
}

// Set returns the transaction set the specification covers.
func (sp *Spec) Set() *TxnSet { return sp.set }

// Clone returns an independent copy of the specification. The copy
// shares the cut slices, which neither specification edits in place.
func (sp *Spec) Clone() *Spec {
	c := &Spec{set: sp.set, idx: make([][]int32, len(sp.idx)), cuts: slices.Clone(sp.cuts), shared: sp.shared}
	for i, row := range sp.idx {
		c.idx[i] = slices.Clone(row)
	}
	return c
}

// SpecFromCuts builds the specification an atomicity oracle describes:
// cuts(a, b) lists the unit boundaries of a relative to b under
// UnitBounds's convention. Pairs with no boundaries stay absolute.
//
// The slices are kept, not copied: an oracle answers from per-program
// tables, so the pairs of one program share one slice, which enters the
// table and is checked for ascending order once per run of pairs that
// share it.
func SpecFromCuts(ts *TxnSet, cuts func(a, b *Transaction) []int) (*Spec, error) {
	sp := NewSpec(ts)
	var last []int // the slice at cuts[len(cuts)-1]
	for i, a := range ts.Txns() {
		for j, b := range ts.Txns() {
			if i == j {
				continue
			}
			cs := cuts(a, b)
			if n := len(cs); n > 0 && cs[n-1] == a.Len() {
				cs = cs[:n-1]
			}
			if len(cs) == 0 {
				continue
			}
			fresh := len(cs) != len(last) || &cs[0] != &last[0]
			if cs[len(cs)-1] >= a.Len() || fresh && !ascendingFromOne(cs) {
				return nil, fmt.Errorf("core: Atomicity(T%d, T%d): boundaries %v are not ascending within (0, %d)", a.ID, b.ID, cs, a.Len())
			}
			if fresh {
				last = cs
				sp.cuts = append(sp.cuts, cs)
			}
			sp.row(i)[j] = int32(len(sp.cuts) - 1)
		}
	}
	sp.shared = int32(len(sp.cuts))
	return sp, nil
}

// ascendingFromOne reports whether cs is strictly ascending from a
// first element of at least 1.
func ascendingFromOne(cs []int) bool {
	for k, p := range cs {
		if p <= 0 || k > 0 && p <= cs[k-1] {
			return false
		}
	}
	return true
}

// SetUnits declares Atomicity(Ti, Tj) as consecutive units of the given
// lengths, which must be positive and sum to len(Ti). For the paper's
// Figure 1, Atomicity(T1, T2) = <r1[x] w1[x] | w1[z] r1[y]> is
// spec.SetUnits(1, 2, 2, 2).
func (sp *Spec) SetUnits(i, j TxnID, unitLens ...int) error {
	t, err := sp.pair(i, j)
	if err != nil {
		return err
	}
	total := 0
	cuts := make([]int, 0, len(unitLens))
	for k, l := range unitLens {
		if l <= 0 {
			return fmt.Errorf("core: Atomicity(T%d, T%d): unit %d has non-positive length %d", i, j, k+1, l)
		}
		total += l
		if total < t.Len() {
			cuts = append(cuts, total)
		}
	}
	if total != t.Len() {
		return fmt.Errorf("core: Atomicity(T%d, T%d): unit lengths sum to %d, T%d has %d operations", i, j, total, i, t.Len())
	}
	sp.storeCuts(i, j, cuts)
	return nil
}

// CutAfter adds a unit boundary in Atomicity(Ti, Tj) immediately after
// operation seq (0-based); the paper calls these breakpoints [FÖ89].
// Cutting after the final operation is a no-op.
func (sp *Spec) CutAfter(i, j TxnID, seq int) error {
	t, err := sp.pair(i, j)
	if err != nil {
		return err
	}
	if seq < 0 || seq >= t.Len() {
		return fmt.Errorf("core: Atomicity(T%d, T%d): cut after seq %d out of range [0, %d)", i, j, seq, t.Len())
	}
	cuts := sp.cutsFor(i, j)
	if _, end := UnitBounds(cuts, t.Len(), seq); end == seq {
		return nil // the cut exists, or seq is the last operation
	}
	// A copy: the pair may share its boundaries with others (see
	// SpecFromCuts).
	sp.storeCuts(i, j, slices.Insert(slices.Clip(cuts), unitIndex(cuts, seq), seq+1))
	return nil
}

// AllowAll makes every operation of Ti its own atomic unit relative to
// Tj: Tj may interleave anywhere inside Ti.
func (sp *Spec) AllowAll(i, j TxnID) error {
	t, err := sp.pair(i, j)
	if err != nil {
		return err
	}
	cuts := make([]int, 0, t.Len()-1)
	for p := 1; p < t.Len(); p++ {
		cuts = append(cuts, p)
	}
	sp.storeCuts(i, j, cuts)
	return nil
}

// AllowAllPairs applies AllowAll to every ordered pair: the
// specification imposes no atomicity at all.
func (sp *Spec) AllowAllPairs() {
	for _, ti := range sp.set.Txns() {
		for _, tj := range sp.set.Txns() {
			if ti.ID != tj.ID {
				if err := sp.AllowAll(ti.ID, tj.ID); err != nil {
					panic(err) // unreachable: IDs come from the set
				}
			}
		}
	}
}

// IsAbsolute reports whether the specification is the traditional
// absolute-atomicity model: every transaction is one atomic unit
// relative to every other transaction.
func (sp *Spec) IsAbsolute() bool {
	for _, row := range sp.idx {
		for _, k := range row {
			if len(sp.cuts[k]) > 0 {
				return false
			}
		}
	}
	return true
}

// Cuts returns the unit boundaries of Atomicity(Ti, Tj), ascending,
// each in (0, len(Ti)); empty for a single atomic unit. The slice is the
// spec's own: callers must not modify it, and an edit of the pair
// (SetUnits, CutAfter, AllowAll) may rewrite it.
func (sp *Spec) Cuts(i, j TxnID) []int { return sp.cutsFor(i, j) }

// NumUnits returns the number of atomic units in Atomicity(Ti, Tj).
func (sp *Spec) NumUnits(i, j TxnID) int { return len(sp.cutsFor(i, j)) + 1 }

// UnitBounds is the atomic-unit rule, written once: the inclusive bounds
// of the unit containing operation seq of a transaction of length
// operations whose boundaries relative to some observer are cuts; start
// is PullBackward and end PushForward (§3). It is the cut convention of
// Spec and every sched.AtomicityOracle: cuts are ascending, a cut p
// splits operations p-1 and p, a cut at length is a no-op, and no cuts
// is a single unit (absolute atomicity).
func UnitBounds(cuts []int, length, seq int) (start, end int) {
	k := unitIndex(cuts, seq)
	start, end = 0, length-1
	if k > 0 {
		start = cuts[k-1]
	}
	if k < len(cuts) {
		end = cuts[k] - 1
	}
	return start, end
}

// unitIndex is the number of cuts at or before seq, the index of its unit.
func unitIndex(cuts []int, seq int) int {
	k, _ := slices.BinarySearch(cuts, seq+1)
	return k
}

// Unit returns the inclusive sequence bounds [start, end] of the k-th
// (0-based) atomic unit of Atomicity(Ti, Tj).
func (sp *Spec) Unit(i, j TxnID, k int) (start, end int) {
	a, b := sp.positions(i, j)
	cuts := sp.cutsAt(a, b)
	if k < 0 || k > len(cuts) {
		panic(fmt.Sprintf("core: Atomicity(T%d, T%d) has no unit %d", i, j, k))
	}
	if k > 0 {
		start = cuts[k-1]
	}
	return UnitBounds(cuts, sp.set.txns[a].Len(), start)
}

// UnitOf returns the inclusive sequence bounds of the atomic unit of
// Atomicity(Ti, Tj) containing Ti's operation seq.
func (sp *Spec) UnitOf(i TxnID, seq int, j TxnID) (start, end int) {
	a, b := sp.positions(i, j)
	return UnitBounds(sp.cutsAt(a, b), sp.set.txns[a].Len(), seq)
}

// UnitIndexOf returns the 0-based index of the atomic unit of
// Atomicity(Ti, Tj) containing Ti's operation seq.
func (sp *Spec) UnitIndexOf(i TxnID, seq int, j TxnID) int {
	return unitIndex(sp.cutsFor(i, j), seq)
}

// PushForward returns the last operation of the atomic unit of o's
// transaction, relative to Tk, that contains o (§3). In Figure 1,
// PushForward(r1[x], T2) is w1[x].
func (sp *Spec) PushForward(o Op, k TxnID) Op {
	_, end := sp.UnitOf(o.Txn, o.Seq, k)
	return sp.set.Txn(o.Txn).Op(end)
}

// PullBackward returns the first operation of the atomic unit of o's
// transaction, relative to Tk, that contains o (§3). In Figure 1,
// PullBackward(r1[y], T2) is w1[z].
func (sp *Spec) PullBackward(o Op, k TxnID) Op {
	start, _ := sp.UnitOf(o.Txn, o.Seq, k)
	return sp.set.Txn(o.Txn).Op(start)
}

// Atomicity renders Atomicity(Ti, Tj) in a bracketed form mirroring the
// paper's boxed figures, e.g. "[r1[x] w1[x]] [w1[z] r1[y]]".
func (sp *Spec) Atomicity(i, j TxnID) string {
	t := sp.set.Txn(i)
	if t == nil {
		return fmt.Sprintf("Atomicity(T%d, T%d): unknown transaction", i, j)
	}
	var sb strings.Builder
	for k := 0; k < sp.NumUnits(i, j); k++ {
		if k > 0 {
			sb.WriteByte(' ')
		}
		start, end := sp.Unit(i, j, k)
		sb.WriteByte('[')
		for s := start; s <= end; s++ {
			if s > start {
				sb.WriteByte(' ')
			}
			sb.WriteString(t.Op(s).String())
		}
		sb.WriteByte(']')
	}
	return sb.String()
}

// String renders the whole specification, one pair per line, in
// (Ti, Tj) ID order, omitting pairs that are single (absolute) units.
func (sp *Spec) String() string {
	var sb strings.Builder
	first := true
	for _, ti := range sp.set.Txns() {
		for _, tj := range sp.set.Txns() {
			if ti.ID == tj.ID {
				continue
			}
			if sp.NumUnits(ti.ID, tj.ID) == 1 {
				continue
			}
			if !first {
				sb.WriteByte('\n')
			}
			first = false
			fmt.Fprintf(&sb, "Atomicity(T%d, T%d): %s", int(ti.ID), int(tj.ID), sp.Atomicity(ti.ID, tj.ID))
		}
	}
	if first {
		return "(absolute atomicity)"
	}
	return sb.String()
}

func (sp *Spec) pair(i, j TxnID) (*Transaction, error) {
	if i == j {
		return nil, fmt.Errorf("core: Atomicity(T%d, T%d) is not defined for a transaction relative to itself", i, j)
	}
	t := sp.set.Txn(i)
	if t == nil {
		return nil, fmt.Errorf("core: unknown transaction T%d", i)
	}
	if !sp.set.Has(j) {
		return nil, fmt.Errorf("core: unknown transaction T%d", j)
	}
	return t, nil
}

// cutsFor returns the boundaries of Atomicity(Ti, Tj); nil for a pair
// outside the set.
func (sp *Spec) cutsFor(i, j TxnID) []int {
	if a, ok := sp.set.pos[i]; ok && sp.idx[a] != nil {
		if b, ok := sp.set.pos[j]; ok {
			return sp.cuts[sp.idx[a][b]]
		}
	}
	return nil
}

// storeCuts sets the boundaries of Atomicity(Ti, Tj); both IDs must be
// in the set.
func (sp *Spec) storeCuts(i, j TxnID, cuts []int) {
	sp.store(sp.set.pos[i], sp.set.pos[j], cuts)
}

// store sets the boundaries of the pair at positions (a, b), in place
// of its old slice if no other pair holds that one.
func (sp *Spec) store(a, b int, cuts []int) {
	row := sp.row(a)
	if k := row[b]; k >= sp.shared {
		sp.cuts[k] = cuts
		return
	}
	row[b] = int32(len(sp.cuts))
	sp.cuts = append(sp.cuts, cuts)
}

// row returns T_a's row of table indices, creating it if T_a had none.
func (sp *Spec) row(a int) []int32 {
	if sp.idx[a] == nil {
		sp.idx[a] = make([]int32, len(sp.idx))
	}
	return sp.idx[a]
}

// positions maps a pair of IDs to their TxnSet positions.
func (sp *Spec) positions(i, j TxnID) (a, b int) {
	a, okI := sp.set.pos[i]
	b, okJ := sp.set.pos[j]
	if !okI || !okJ {
		panic(fmt.Sprintf("core: Atomicity(T%d, T%d): transaction not in the set", i, j))
	}
	return a, b
}

// cutsAt returns the boundaries of the pair at positions (a, b).
func (sp *Spec) cutsAt(a, b int) []int {
	if row := sp.idx[a]; row != nil {
		return sp.cuts[row[b]]
	}
	return nil
}

// pairCuts calls fn for every ordered pair with at least one unit
// boundary, in (Ti, Tj) ID order.
func (sp *Spec) pairCuts(fn func(i, j TxnID, cuts []int)) {
	for a, row := range sp.idx {
		for b, k := range row {
			if cs := sp.cuts[k]; len(cs) > 0 {
				fn(sp.set.txns[a].ID, sp.set.txns[b].ID, cs)
			}
		}
	}
}

// Refine returns the specification whose cut sets are the unions of
// the two inputs': every unit boundary declared by either is declared
// by the result. Refine is the join of the specification lattice;
// admission is monotone along it (a finer specification admits at
// least the schedules a coarser one does).
func (sp *Spec) Refine(other *Spec) *Spec {
	out := sp.Clone()
	other.pairCuts(func(i, j TxnID, cs []int) {
		for _, p := range cs {
			if err := out.CutAfter(i, j, p-1); err != nil {
				panic(fmt.Sprintf("core: Refine over mismatched sets: %v", err))
			}
		}
	})
	return out
}

// Coarsen returns the specification whose cut sets are the
// intersections of the two inputs': a unit boundary survives only if
// both declare it. Coarsen is the meet of the specification lattice.
func (sp *Spec) Coarsen(other *Spec) *Spec {
	out := NewSpec(sp.set)
	sp.pairCuts(func(i, j TxnID, cs []int) {
		theirs := other.cutsFor(i, j)
		for _, p := range cs {
			if _, found := slices.BinarySearch(theirs, p); found {
				if err := out.CutAfter(i, j, p-1); err != nil {
					panic(fmt.Sprintf("core: Coarsen over mismatched sets: %v", err))
				}
			}
		}
	})
	return out
}

// RefinesOrEquals reports whether sp declares every unit boundary
// other declares (sp is at least as fine as other).
func (sp *Spec) RefinesOrEquals(other *Spec) bool {
	refines := true
	other.pairCuts(func(i, j TxnID, cs []int) {
		mine := sp.cutsFor(i, j)
		for _, p := range cs {
			if _, found := slices.BinarySearch(mine, p); !found {
				refines = false
			}
		}
	})
	return refines
}
