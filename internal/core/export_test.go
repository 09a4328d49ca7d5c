package core

import "relser/internal/graph"

// TestedGraph exposes the dominance-reduced graph Acyclic, Cycle and
// Witness run on, so tests can compare its reachability with
// Definition 3's.
func (r *RSG) TestedGraph() *graph.Dense { return r.testedGraph() }

// ListedArcs calls fn for every F- and B-arc of the tested graph's arc
// list, repeats included; the I-arcs are not listed.
func (r *RSG) ListedArcs(fn func(u, v int)) {
	for u := range len(r.first) - 1 {
		for _, v := range r.succ[r.first[u]:r.first[u+1]] {
			fn(u, int(v))
		}
	}
}

// DenseBuilt reports whether the tested graph's graph.Dense has been
// built.
func (r *RSG) DenseBuilt() bool { return r.tested != nil }

// DenseTestedGraph is the tested graph as the builder filled it before
// the arc list: a graph.Dense with every I-arc and the F- and B-arc of
// each staircase pair, set as the scan finds them.
func DenseTestedGraph(s *Schedule, sp *Spec, dep *Depends) *graph.Dense {
	ts := s.Set()
	g := graph.NewDense(ts.NumOps())
	addProgramOrder(g, ts)
	dep.staircase(func(p, k int, latest []int32, advanced []int) {
		gv := s.seq[p]
		vSeq := gv - ts.offset[k]
		for _, i := range advanced {
			gu := int(latest[i]) - 1
			uSeq := gu - ts.offset[i]
			_, end := UnitBounds(sp.cutsAt(i, k), ts.txns[i].Len(), uSeq)
			g.AddArc(gu+end-uSeq, gv) // F: PushForward(u, Tk) -> v
			start, _ := UnitBounds(sp.cutsAt(k, i), ts.txns[k].Len(), vSeq)
			g.AddArc(gu, gv+start-vSeq) // B: u -> PullBackward(v, Ti)
		}
	})
	return g
}
