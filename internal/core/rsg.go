package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"relser/internal/graph"
)

// ArcKind is a bitmask of the arc kinds of Definition 3. One vertex
// pair may carry several kinds (the paper's Figure 3 labels edges
// "D,F,B" and similar).
type ArcKind uint8

const (
	// IArc connects consecutive operations of one transaction
	// (internal arcs; program order).
	IArc ArcKind = 1 << iota
	// DArc connects oij -> okl (i ≠ k) when okl depends on oij
	// (dependency arcs; these subsume conflicts).
	DArc
	// FArc is a push-forward arc: for each D-arc oij -> okl,
	// PushForward(oij, Tk) -> okl.
	FArc
	// BArc is a pull-backward arc: for each D-arc okl -> oij,
	// okl -> PullBackward(oij, Tk).
	BArc
)

// String renders the kind set in the paper's figure notation, e.g.
// "D,F,B".
func (k ArcKind) String() string {
	var parts []string
	if k&IArc != 0 {
		parts = append(parts, "I")
	}
	if k&DArc != 0 {
		parts = append(parts, "D")
	}
	if k&FArc != 0 {
		parts = append(parts, "F")
	}
	if k&BArc != 0 {
		parts = append(parts, "B")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// RSG is the relative serialization graph of a schedule under a
// relative atomicity specification (Definition 3). Vertices are the
// operations of the transaction set, addressed by their TxnSet global
// index. Theorem 1: the schedule is relatively serializable iff the
// graph is acyclic.
//
// Acyclic, Cycle and Witness run on the dominance-reduced graph
// (THEORY §4): a subgraph of Definition 3's with the same reachability.
// It is stored as an arc list: its I-arcs are implicit (consecutive
// global indices of one transaction), and its F- and B-arcs are
// grouped by source. Acyclic runs on that list alone; Cycle, Witness
// and TestedArcs run on a graph.Dense built from it on first use. Arc
// kinds are derived from dep and sp on demand; Definition 3's full arc
// set is enumerated only for Arcs, NumArcs and Dot.
type RSG struct {
	s   *Schedule
	sp  *Spec
	dep *Depends
	// The F- and B-arcs out of global index u go to succ[first[u]:first[u+1]],
	// in no particular order and possibly repeated.
	first, succ []int32

	testedOnce sync.Once
	tested     *graph.Dense
	def3Once   sync.Once
	def3       *graph.Dense
}

// BuildRSG constructs RSG(S) for the schedule under the specification.
// The depends-on relation is computed from the schedule (transitive, as
// the paper requires). The specification must cover the schedule's
// transactions and no others; it panics otherwise.
func BuildRSG(s *Schedule, sp *Spec) *RSG {
	return buildRSG(s, sp, ComputeDepends(s))
}

// BuildRSGUnder constructs the graph with a caller-supplied depends-on
// relation; supplying ComputeDirectDepends(s) gives the Figure 2
// ablation variant.
func BuildRSGUnder(s *Schedule, sp *Spec, d *Depends) *RSG {
	if d.Schedule() != s {
		panic("core: depends-on relation computed from a different schedule")
	}
	return buildRSG(s, sp, d)
}

// buildRSG lists the tested graph's arcs in one forward scan: the F-
// and B-arc of a dependent pair u ∈ Ti, v ∈ Tk only where u is later in
// Ti than anything an operation of Tk up to v depended on before (dep's
// staircase). By the dominance lemma (THEORY §4) every arc Definition 3
// adds for any other pair is a path through those and the I-arcs,
// whatever the depends-on relation, so no D-arc is stored.
func buildRSG(s *Schedule, sp *Spec, dep *Depends) *RSG {
	ts := s.Set()
	if !ts.sameTxns(sp.Set()) {
		panic("core: specification covers a different transaction set than the schedule")
	}
	arcs := &arcBuf{cur: make([]int32, 0, 4*ts.NumOps())} // two arcs per operation
	dep.staircase(func(p, k int, latest []int32, advanced []int) {
		gv := s.seq[p]
		vSeq := gv - ts.offset[k]
		for _, i := range advanced {
			gu := int(latest[i]) - 1
			uSeq := gu - ts.offset[i]
			_, end := UnitBounds(sp.cutsAt(i, k), ts.txns[i].Len(), uSeq)
			arcs.add(gu+end-uSeq, gv) // F: PushForward(u, Tk) -> v
			start, _ := UnitBounds(sp.cutsAt(k, i), ts.txns[k].Len(), vSeq)
			arcs.add(gu, gv+start-vSeq) // B: u -> PullBackward(v, Ti)
		}
	})
	r := &RSG{s: s, sp: sp, dep: dep}
	r.first, r.succ = arcs.bySource(ts.NumOps())
	return r
}

// arcBuf collects arcs as (source, target) pairs in chunks, each twice
// the size of the one before, so growing it copies nothing: a slice
// grown by append leaves every smaller backing array behind, and once
// it is large it grows 1.25x at a time, so that garbage comes to
// several times the final size.
type arcBuf struct {
	full [][]int32
	cur  []int32
}

func (b *arcBuf) add(u, v int) {
	if len(b.cur) == cap(b.cur) {
		b.full = append(b.full, b.cur)
		b.cur = make([]int32, 0, 2*cap(b.cur))
	}
	b.cur = append(b.cur, int32(u), int32(v))
}

// bySource groups the arcs of an n-vertex graph by source (compressed
// sparse rows): the targets of u are succ[first[u]:first[u+1]].
func (b *arcBuf) bySource(n int) (first, succ []int32) {
	chunks := append(b.full, b.cur)
	first = make([]int32, n+1)
	total := 0
	for _, c := range chunks {
		for i := 0; i < len(c); i += 2 {
			first[c[i]]++
		}
		total += len(c) / 2
	}
	// first[u] becomes the end of u's range, then moves back to its
	// start as u's arcs are placed.
	for u := 1; u < n; u++ {
		first[u] += first[u-1]
	}
	first[n] = int32(total)
	succ = make([]int32, total)
	for _, c := range chunks {
		for i := 0; i < len(c); i += 2 {
			u := c[i]
			first[u]--
			succ[first[u]] = c[i+1]
		}
	}
	return first, succ
}

// addProgramOrder adds the I-arcs; consecutive operations of one
// transaction have consecutive global indices.
func addProgramOrder(g *graph.Dense, ts *TxnSet) {
	for i := 1; i < ts.NumOps(); i++ {
		if ts.OpAt(i).Seq > 0 {
			g.AddArc(i-1, i)
		}
	}
}

// testedGraph returns the tested graph as a graph.Dense, built on first
// use: its I-arcs and the listed F- and B-arcs.
func (r *RSG) testedGraph() *graph.Dense {
	r.testedOnce.Do(func() {
		n := len(r.first) - 1
		r.tested = graph.NewDense(n)
		addProgramOrder(r.tested, r.s.Set())
		for u := 0; u < n; u++ {
			for _, v := range r.succ[r.first[u]:r.first[u+1]] {
				r.tested.AddArc(u, int(v))
			}
		}
	})
	return r.tested
}

// definition3 returns Definition 3's graph, built on first use: the
// I-arcs plus, for each D-arc u -> v with u ∈ Ti, v ∈ Tk (i ≠ k), the
// F-arc PushForward(u, Tk) -> v (rule 3) and the B-arc
// u -> PullBackward(v, Ti) (rule 4, which names the pair the other way
// round: source -> first operation of the target's unit relative to the
// source's transaction). No rule produces a self-arc.
func (r *RSG) definition3() *graph.Dense {
	r.def3Once.Do(func() {
		s, sp, ts := r.s, r.sp, r.s.Set()
		r.def3 = graph.NewDense(ts.NumOps())
		addProgramOrder(r.def3, ts)
		for posV := 0; posV < s.Len(); posV++ {
			v, gv := s.At(posV), s.GlobalAt(posV)
			r.dep.Predecessors(posV).ForEach(func(posU int) bool {
				if u, gu := s.At(posU), s.GlobalAt(posU); u.Txn != v.Txn {
					r.def3.AddArc(gu, gv)
					r.def3.AddArc(ts.GlobalIndexOf(sp.PushForward(u, v.Txn)), gv)
					r.def3.AddArc(gu, ts.GlobalIndexOf(sp.PullBackward(v, u.Txn)))
				}
				return true
			})
		}
	})
	return r.def3
}

// Schedule returns the underlying schedule.
func (r *RSG) Schedule() *Schedule { return r.s }

// Spec returns the relative atomicity specification used.
func (r *RSG) Spec() *Spec { return r.sp }

// NumVertices returns the number of vertices (operations).
func (r *RSG) NumVertices() int { return r.s.Len() }

// NumArcs returns the number of distinct arcs of Definition 3's graph.
func (r *RSG) NumArcs() int { return r.definition3().ArcCount() }

// TestedArcs returns the number of distinct arcs of the
// dominance-reduced graph that Acyclic, Cycle and Witness actually
// test.
func (r *RSG) TestedArcs() int { return r.testedGraph().ArcCount() }

// ArcKinds returns the kind mask Definition 3 gives the arc u -> v, or
// 0 if it has no such arc. Across transactions, u -> v is a D-arc if v
// depends on u, an F-arc if u closes its atomic unit relative to v's
// transaction and v depends on an operation of that unit, and a B-arc
// if v opens its atomic unit relative to u's transaction and an
// operation of that unit depends on u.
func (r *RSG) ArcKinds(u, v Op) ArcKind {
	if u.Txn == v.Txn {
		if v.Seq == u.Seq+1 {
			return IArc
		}
		return 0
	}
	ts, dep := r.s.Set(), r.dep
	var kind ArcKind
	if dep.DependsOn(v, u) {
		kind |= DArc
	}
	if start, end := r.sp.UnitOf(u.Txn, u.Seq, v.Txn); end == u.Seq &&
		slices.ContainsFunc(ts.Txn(u.Txn).Ops[start:end+1], func(o Op) bool { return dep.DependsOn(v, o) }) {
		kind |= FArc
	}
	if start, end := r.sp.UnitOf(v.Txn, v.Seq, u.Txn); start == v.Seq &&
		slices.ContainsFunc(ts.Txn(v.Txn).Ops[start:end+1], func(o Op) bool { return dep.DependsOn(o, u) }) {
		kind |= BArc
	}
	return kind
}

// HasArc reports whether Definition 3's graph has any arc u -> v.
func (r *RSG) HasArc(u, v Op) bool { return r.ArcKinds(u, v) != 0 }

// Arcs calls fn for every arc of Definition 3's graph in deterministic
// order with its kinds.
func (r *RSG) Arcs(fn func(u, v Op, kind ArcKind) bool) {
	ts := r.s.Set()
	r.definition3().Arcs(func(gu, gv int) bool {
		u, v := ts.OpAt(gu), ts.OpAt(gv)
		return fn(u, v, r.ArcKinds(u, v))
	})
}

// Acyclic reports whether the graph is acyclic; by Theorem 1 this holds
// iff the schedule is relatively serializable. It is Kahn's algorithm
// over the arc list with a plain stack, O(operations + arcs): only the
// verdict is wanted, so the ready vertices may leave in any order.
func (r *RSG) Acyclic() bool {
	owner := r.s.Set().owner
	n := len(owner)
	work := make([]int32, 2*n)
	indeg, ready := work[:n:n], work[n:n]
	for _, v := range r.succ {
		indeg[v]++
	}
	for v := range indeg {
		if v > 0 && owner[v] == owner[v-1] { // the I-arc from v-1
			indeg[v]++
		}
		if indeg[v] == 0 {
			ready = append(ready, int32(v))
		}
	}
	done := 0
	for len(ready) > 0 {
		u := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		done++
		if v := u + 1; int(v) < n && owner[v] == owner[u] {
			if indeg[v]--; indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
		for _, v := range r.succ[r.first[u]:r.first[u+1]] {
			if indeg[v]--; indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	return done == n
}

// Cycle returns the operations of one directed cycle, or nil if the
// graph is acyclic.
func (r *RSG) Cycle() []Op {
	cyc := r.testedGraph().FindCycle()
	if cyc == nil {
		return nil
	}
	ts := r.s.Set()
	out := make([]Op, len(cyc))
	for i, g := range cyc {
		out[i] = ts.OpAt(g)
	}
	return out
}

// Witness returns a relatively serial schedule that is conflict
// equivalent to the underlying schedule, obtained by topologically
// sorting the graph (the constructive direction of Theorem 1). The
// sort prefers the original schedule order, so a schedule that is
// already relatively serial is returned unchanged. Returns an error if
// the graph is cyclic.
func (r *RSG) Witness() (*Schedule, error) {
	ts := r.s.Set()
	rank := make([]int, ts.NumOps())
	for g := range rank {
		rank[g] = r.s.PosOfGlobal(g)
	}
	order, ok := r.testedGraph().TopoOrderPreferring(rank)
	if !ok {
		return nil, fmt.Errorf("core: RSG is cyclic; schedule is not relatively serializable")
	}
	ops := make([]Op, len(order))
	for i, g := range order {
		ops[i] = ts.OpAt(g)
	}
	return NewSchedule(ts, ops)
}

// Dot renders the graph in Graphviz DOT format with arc-kind labels in
// the style of the paper's Figure 3. I-arcs are drawn bold, D-arcs
// solid, F-arcs dashed and B-arcs dotted; arcs carrying several kinds
// list all labels.
func (r *RSG) Dot(name string) string {
	ts := r.s.Set()
	var d graph.DotGraph
	d.Name = name
	for g := 0; g < ts.NumOps(); g++ {
		d.AddNode(g, ts.OpAt(g).String(), nil)
	}
	r.Arcs(func(u, v Op, kind ArcKind) bool {
		attrs := map[string]string{}
		switch {
		case kind&IArc != 0:
			attrs["style"] = "bold"
		case kind&DArc != 0:
			attrs["style"] = "solid"
		case kind&FArc != 0:
			attrs["style"] = "dashed"
		default:
			attrs["style"] = "dotted"
		}
		d.AddEdge(ts.GlobalIndexOf(u), ts.GlobalIndexOf(v), kind.String(), attrs)
		return true
	})
	return d.String()
}

// IsRelativelySerializable reports whether the schedule is conflict
// equivalent to some relatively serial schedule, by Theorem 1 the
// acyclicity of RSG(S).
func IsRelativelySerializable(s *Schedule, sp *Spec) bool {
	return BuildRSG(s, sp).Acyclic()
}
