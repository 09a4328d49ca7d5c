package core

import (
	"hash/maphash"
	"math/bits"
	"sync"

	"relser/internal/graph"
)

// Depends is the depends-on relation of a schedule (§2): o2 directly
// depends on o1 if o1 precedes o2 in S and either both belong to the
// same transaction or they conflict; depends-on is the transitive
// closure of directly-depends-on.
//
// The transitive relation is not materialized. Restricted to one
// transaction Ti it is downward-closed in program order (an operation
// that depends on u ∈ Ti depends on every earlier operation of Ti,
// through u), so what an operation v depends on is a vector clock:
// v depends on u ∈ Ti iff global(u) < clock_v[i] (see clockScan).
// Theorem 1's test consumes the clocks directly; the per-position rows
// that DependsOn, DependsOnPos and Predecessors answer from are built
// from them on first use, for inspection.
type Depends struct {
	s      *Schedule
	direct bool

	rowsOnce sync.Once
	// dep[p] = set of schedule positions q < p such that the operation
	// at p depends on the operation at q.
	dep []graph.Bitset
}

// ComputeDepends returns the full (transitive) depends-on relation.
// Nothing is computed until the relation is first used.
func ComputeDepends(s *Schedule) *Depends {
	return &Depends{s: s}
}

// ComputeDirectDepends builds only the directly-depends-on relation
// (no transitive closure). It exists for the Figure 2 ablation, which
// shows that using direct conflicts alone admits incorrect schedules.
// Direct dependence is not downward-closed in program order, so it has
// no clock form and is kept as one bitset row per position.
func ComputeDirectDepends(s *Schedule) *Depends {
	// Quadratic scan; the direct variant is only used on small
	// ablation instances.
	n := s.Len()
	d := &Depends{s: s, direct: true, dep: make([]graph.Bitset, n)}
	for p := 0; p < n; p++ {
		row := graph.NewBitset(n)
		op := s.At(p)
		for q := 0; q < p; q++ {
			oq := s.At(q)
			if oq.Txn == op.Txn || oq.ConflictsWith(op) {
				row.Set(q)
			}
		}
		d.dep[p] = row
	}
	return d
}

// clockScan computes the transitive relation in one forward pass over
// the schedule and calls visit at every position p with the position k
// of its transaction Tk in the set, Tk's clock after p, and the
// transaction positions i ≠ k whose entry p advanced. The clock is
// valid only during the call.
//
// clock[i] is 1 + the largest global index of an operation of Ti that
// an operation of Tk up to p depends on (0 for none); clock[k] counts p
// itself. The clock at p is the entrywise max of the clocks of a
// covering subset of p's direct predecessors, which already carry their
// own closure:
//
//   - the previous operation of Tk (Tk's running clock);
//   - the latest earlier write of p's object (whose clock covers every
//     earlier write of it through w-w conflicts);
//   - for a write, every read of the object since that write, kept as
//     the entrywise max of their clocks (reads do not depend on one
//     another).
//
// Every operation of Tk depends on all earlier ones, so Tk's running
// clock is also the per-transaction maximum THEORY §4's staircase is
// defined by: the advanced entries are exactly its staircase pairs.
//
// Clocks are rows of #transactions entries in one slab, recycled
// through a free list: a transaction holds a row from its first
// operation to its last, and an object that is written and accessed
// more than once (the only kind that carries a dependency) holds two
// from its first access to its last, its last write's clock and its
// reads' since that write. The slab is sized by the rows live at once,
// not by the number of transactions, and the scan allocates nothing
// per operation. An access to such an object passes over the nonzero
// prefix of three rows, up to #transactions entries each, so the time
// grows with #operations × #transactions: at a fixed number of
// operations, the shorter the transactions, the longer the rows
// (DESIGN §5).
func clockScan(s *Schedule, visit func(p, k int, clock []int32, advanced []int)) {
	ts := s.set
	nt := ts.NumTxns()
	// What touches each object.
	objOf, objects := numberObjects(s)
	type use struct {
		last            int // 1 + position of the last access
		shared, written bool
	}
	uses := make([]use, objects)
	for p, g := range s.seq {
		u := &uses[objOf[p]]
		u.shared = u.last != 0
		u.last = p + 1
		u.written = u.written || ts.OpAt(g).Kind == WriteOp
	}
	// Size the slab by the most rows live at once; row 0 stays zero and
	// unused, so a zero row index means none.
	carries := func(x int32) bool { return uses[x].written && uses[x].shared }
	seen := make([]bool, len(uses))
	live, rows := 0, 0
	for p, g := range s.seq {
		k, x := ts.owner[g], objOf[p]
		if g == ts.offset[k] {
			live++
		}
		if carries(x) && !seen[x] {
			seen[x] = true
			live += 2
		}
		rows = max(rows, live)
		if g+1 == ts.offset[k]+ts.txns[k].Len() {
			live--
		}
		if carries(x) && uses[x].last == p+1 {
			live -= 2
		}
	}
	slab := make([]int32, (1+rows)*nt)
	// Entries of row r from hi[r] on are zero. Transactions are numbered
	// by ID, so when IDs follow arrival, a clock's nonzero entries stop
	// near its own transaction and the loops below stop with them.
	hi := make([]int, 1+rows)
	free := make([]int, 0, rows)
	next := 1
	acquire := func() int {
		if m := len(free) - 1; m >= 0 {
			r := free[m]
			free = free[:m]
			clear(slab[r*nt : r*nt+hi[r]])
			hi[r] = 0
			return r
		}
		next++
		return next - 1
	}
	row := func(r int) []int32 { return slab[r*nt : (r+1)*nt : (r+1)*nt] }
	txnRow := make([]int, nt)            // transaction position -> its row
	objRows := make([][2]int, len(uses)) // object -> last write's row, reads' row
	advanced := make([]int, 0, nt)
	for p, g := range s.seq {
		k, x := int(ts.owner[g]), objOf[p]
		if txnRow[k] == 0 {
			txnRow[k] = acquire()
		}
		if carries(x) && objRows[x][0] == 0 {
			objRows[x] = [2]int{acquire(), acquire()}
		}
		rc := txnRow[k]
		clock := row(rc)
		// The own entry first: nothing p depends on reaches past it, so
		// k never advances below.
		clock[k] = int32(g + 1)
		hi[rc] = max(hi[rc], k+1)
		advanced = advanced[:0]
		if o := objRows[x]; o[0] != 0 {
			rw, rr := o[0], o[1]
			lastWrite, reads := row(rw), row(rr)
			if ts.OpAt(g).Kind == WriteOp {
				top := max(hi[rw], hi[rr])
				w, r := lastWrite[:top], reads[:top]
				for i, c := range clock[:top] {
					if m := max(w[i], r[i]); m > c {
						clock[i] = m
						advanced = append(advanced, i)
					}
				}
				hi[rc] = max(hi[rc], top)
				copy(lastWrite, clock[:hi[rc]])
				hi[rw] = hi[rc]
				clear(r)
				hi[rr] = 0
			} else {
				top := max(hi[rw], hi[rc])
				w, r := lastWrite[:top], reads[:top]
				for i, c := range clock[:top] {
					if w[i] > c {
						clock[i], c = w[i], w[i]
						advanced = append(advanced, i)
					}
					r[i] = max(r[i], c)
				}
				hi[rc] = top
				hi[rr] = max(hi[rr], top)
			}
		}
		visit(p, k, clock, advanced)
		if g+1 == ts.offset[k]+ts.txns[k].Len() {
			free = append(free, txnRow[k])
		}
		if r := objRows[x]; r[0] != 0 && uses[x].last == p+1 {
			free = append(free, r[0], r[1])
		}
	}
}

// numberObjects numbers the objects the schedule accesses 0, 1, … in
// order of first access, and returns each position's object number and
// the number of objects. It stands in for a map from object to number:
// an open-addressing table of 4-byte slots, each 1 + the position of an
// object's first access (0 for empty), sized once to more slots than
// there are operations, so it never grows and a probe always ends.
func numberObjects(s *Schedule) (objOf []int32, objects int) {
	ts, n := s.set, s.Len()
	objOf = make([]int32, n)
	slots := make([]int32, 1<<bits.Len(uint(n)))
	mask := uint64(len(slots) - 1)
	seed := maphash.MakeSeed()
	for p, g := range s.seq {
		name := ts.OpAt(g).Object
		for h := maphash.String(seed, name) & mask; ; h = (h + 1) & mask {
			q := slots[h] - 1
			if q < 0 {
				slots[h] = int32(p + 1)
				objOf[p] = int32(objects)
				objects++
				break
			}
			if ts.OpAt(s.seq[q]).Object == name {
				objOf[p] = objOf[q]
				break
			}
		}
	}
	return objOf, objects
}

// staircase calls visit at every position p with the position k of its
// transaction Tk, latest[i] = 1 + the global index of the latest
// operation of Ti that an operation of Tk up to p depends on (0 for
// none; latest[k] is meaningless), and the positions i ≠ k whose entry
// p advanced. The transitive relation answers from clockScan; the
// direct one from its rows.
func (d *Depends) staircase(visit func(p, k int, latest []int32, advanced []int)) {
	if !d.direct {
		clockScan(d.s, visit)
		return
	}
	s, ts := d.s, d.s.set
	nt := ts.NumTxns()
	latest := make([]int32, nt*nt)
	stamp := make([]int, nt) // stamp[i] == p+1: entry i advanced at p
	var advanced []int
	for p, gv := range s.seq {
		k := int(ts.owner[gv])
		row := latest[k*nt : (k+1)*nt]
		advanced = advanced[:0]
		d.dep[p].ForEach(func(q int) bool {
			gu := s.seq[q]
			if i := int(ts.owner[gu]); i != k && int32(gu) >= row[i] {
				row[i] = int32(gu + 1)
				if stamp[i] != p+1 {
					stamp[i] = p + 1
					advanced = append(advanced, i)
				}
			}
			return true
		})
		visit(p, k, row, advanced)
	}
}

// rows returns the per-position bitsets, building the transitive ones
// from the clocks on first use. What an operation v of Tk depends on is
// what Tk's previous operation w depends on, w itself, and for each
// entry i that v's clock advanced, the operation u of Ti it advanced to
// and what u depends on: entries v did not advance are w's, and the
// earlier operations of Ti are u's predecessors. Each of those sets is
// closed under depends-on, and so is their union, so an operation the
// row already holds brings nothing new; the latest one, united first,
// often covers the rest.
func (d *Depends) rows() []graph.Bitset {
	if d.direct {
		return d.dep
	}
	d.rowsOnce.Do(func() {
		s := d.s
		n := s.Len()
		words := (n + 63) / 64
		slab := make([]uint64, n*words)
		d.dep = make([]graph.Bitset, n)
		last := make([]int, s.set.NumTxns()) // 1 + position of Tk's latest operation so far
		unite := func(row graph.Bitset, q int) {
			if !row.Has(q) {
				row.UnionWith(d.dep[q])
				row.Set(q)
			}
		}
		clockScan(s, func(p, k int, clock []int32, advanced []int) {
			row := graph.Bitset(slab[p*words : (p+1)*words : (p+1)*words])
			if w := last[k] - 1; w >= 0 {
				copy(row, d.dep[w])
				row.Set(w)
			}
			last[k] = p + 1
			latest := -1
			for _, i := range advanced {
				latest = max(latest, s.posOf[clock[i]-1])
			}
			if latest >= 0 {
				unite(row, latest)
				for _, i := range advanced {
					unite(row, s.posOf[clock[i]-1])
				}
			}
			d.dep[p] = row
		})
	})
	return d.dep
}

// Schedule returns the schedule the relation was computed from.
func (d *Depends) Schedule() *Schedule { return d.s }

// DependsOn reports whether later depends on earlier in the schedule.
// The relation is irreflexive; if earlier does not precede later in the
// schedule the answer is false.
func (d *Depends) DependsOn(later, earlier Op) bool {
	return d.DependsOnPos(d.s.Pos(later), d.s.Pos(earlier))
}

// DependsOnPos is DependsOn addressed by schedule positions.
func (d *Depends) DependsOnPos(laterPos, earlierPos int) bool {
	if earlierPos >= laterPos {
		return false
	}
	return d.rows()[laterPos].Has(earlierPos)
}

// Predecessors returns the schedule positions the operation at pos
// depends on. The caller must not mutate the returned bitset.
func (d *Depends) Predecessors(pos int) graph.Bitset { return d.rows()[pos] }

// IsDirect reports whether the relation was built without transitive
// closure (the Figure 2 ablation variant).
func (d *Depends) IsDirect() bool { return d.direct }
