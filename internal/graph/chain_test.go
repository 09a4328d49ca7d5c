package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// chainPair drives two graphs through the same operations: impl gives
// each instance one AddChain, expl the same vertices by AddVertex with
// explicit arcs x -> x+1. owner maps an external ID to its instance.
type chainPair struct {
	t          *testing.T
	impl, expl *Incremental
	owner      []int
	live       []int
}

func (c *chainPair) addInstance(n int) {
	x := c.impl.AddChain(n)
	for k := 0; k < n; k++ {
		if v := c.expl.AddVertex(); v != x+k {
			c.t.Fatalf("AddVertex = %d, AddChain vertex %d", v, x+k)
		}
		if k > 0 {
			if err := c.expl.AddArc(x+k-1, x+k); err != nil {
				c.t.Fatalf("I-arc %d -> %d: %v", x+k-1, x+k, err)
			}
		}
		c.owner = append(c.owner, x)
		c.live = append(c.live, x+k)
	}
}

// crossArc draws an arc between two live vertices that is not parallel
// to a chain arc, or reports false.
func (c *chainPair) crossArc(rng *rand.Rand) ([2]int, bool) {
	u, v := c.live[rng.Intn(len(c.live))], c.live[rng.Intn(len(c.live))]
	if u == v || c.owner[u] == c.owner[v] && v == u+1 {
		return [2]int{}, false
	}
	return [2]int{u, v}, true
}

// check requires every query to answer alike on both graphs.
func (c *chainPair) check(step int, rng *rand.Rand) {
	c.t.Helper()
	for _, g := range []*Incremental{c.impl, c.expl} {
		if err := g.Verify(); err != nil {
			c.t.Fatalf("step %d: %v", step, err)
		}
	}
	if a, b := c.impl.ArcCount(), c.expl.ArcCount(); a != b {
		c.t.Fatalf("step %d: ArcCount %d, explicit %d", step, a, b)
	}
	for _, u := range c.live {
		if a, b := c.impl.Successors(u), c.expl.Successors(u); !slices.Equal(a, b) {
			c.t.Fatalf("step %d: Successors(%d) = %v, explicit %v", step, u, a, b)
		}
		if a, b := c.impl.Predecessors(u), c.expl.Predecessors(u); !slices.Equal(a, b) {
			c.t.Fatalf("step %d: Predecessors(%d) = %v, explicit %v", step, u, a, b)
		}
		if c.impl.InDegree(u) != c.expl.InDegree(u) || c.impl.OutDegree(u) != c.expl.OutDegree(u) {
			c.t.Fatalf("step %d: degrees of %d differ", step, u)
		}
		if c.impl.Order(u) != c.expl.Order(u) {
			c.t.Fatalf("step %d: Order(%d) = %d, explicit %d", step, u, c.impl.Order(u), c.expl.Order(u))
		}
	}
	for k := 0; k < 8 && len(c.live) > 0; k++ {
		u, v := c.live[rng.Intn(len(c.live))], c.live[rng.Intn(len(c.live))]
		if c.impl.HasArc(u, v) != c.expl.HasArc(u, v) {
			c.t.Fatalf("step %d: HasArc(%d, %d) differs", step, u, v)
		}
		if a, b := c.impl.FindPath(u, v), c.expl.FindPath(u, v); !slices.Equal(a, b) {
			c.t.Fatalf("step %d: FindPath(%d, %d) = %v, explicit %v", step, u, v, a, b)
		}
	}
}

// TestChainMatchesExplicitIArcs: a graph whose instances are AddChain
// chains answers every query, and accepts or refuses every insertion,
// exactly as the same graph with its I-arcs inserted explicitly, across
// isolation and retirement epochs.
func TestChainMatchesExplicitIArcs(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := &chainPair{t: t, impl: NewIncremental(0), expl: NewIncremental(0)}
		for i := 0; i < 3; i++ {
			c.addInstance(1 + rng.Intn(6))
		}
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(12); {
			case op < 2:
				c.addInstance(1 + rng.Intn(6))
			case op < 5: // AddArc
				if a, ok := c.crossArc(rng); ok {
					if e1, e2 := c.impl.AddArc(a[0], a[1]), c.expl.AddArc(a[0], a[1]); e1 != e2 {
						t.Fatalf("seed %d step %d: AddArc%v = %v, explicit %v", seed, step, a, e1, e2)
					}
				}
			case op < 7: // AddArcBatch
				var arcs [][2]int
				for k := 0; k < 1+rng.Intn(3); k++ {
					if a, ok := c.crossArc(rng); ok {
						arcs = append(arcs, a)
					}
				}
				if e1, e2 := c.impl.AddArcBatch(arcs), c.expl.AddArcBatch(arcs); e1 != e2 {
					t.Fatalf("seed %d step %d: AddArcBatch%v = %v, explicit %v", seed, step, arcs, e1, e2)
				}
			case op < 9: // AppendArcs of arcs forward in the order
				if a, ok := c.crossArc(rng); ok && c.impl.Order(a[0]) < c.impl.Order(a[1]) {
					c.impl.AppendArcs([][2]int{a})
					c.expl.AppendArcs([][2]int{a})
				}
			case op < 10:
				if len(c.live) > 0 {
					v := c.live[rng.Intn(len(c.live))]
					c.impl.IsolateVertex(v)
					c.expl.IsolateVertex(v)
				}
			default: // a retirement epoch
				if len(c.live) > 2 {
					k := 1 + rng.Intn(len(c.live)-1)
					rng.Shuffle(len(c.live), func(i, j int) { c.live[i], c.live[j] = c.live[j], c.live[i] })
					if r1, r2 := c.impl.Retire(c.live[:k]), c.expl.Retire(c.live[:k]); r1 != r2 {
						t.Fatalf("seed %d step %d: Retire = %+v, explicit %+v", seed, step, r1, r2)
					}
					c.live = append([]int(nil), c.live[k:]...)
					slices.Sort(c.live)
				}
			}
			c.check(step, rng)
		}
	}
}

// TestChainRetireSteadyStateAllocates: once warm, a stream of 16-vertex
// chains with arcs between neighbouring instances, retired one instance
// per new one at a constant live size, allocates nothing; and once a
// burst has drained and the stream goes on, the compacted slices are
// back within four times the live set.
func TestChainRetireSteadyStateAllocates(t *testing.T) {
	const size, window = 16, 4
	inc := NewIncremental(0)
	var firsts []int
	arcs := make([][2]int, 0, size/2)
	retire := make([]int, size)
	cycle := func() {
		x := inc.AddChain(size)
		arcs = arcs[:0]
		if n := len(firsts); n > 0 {
			for k := 0; k < size; k += 2 {
				arcs = append(arcs, [2]int{firsts[n-1] + k + 1, x + k})
			}
		}
		inc.AppendArcs(arcs)
		firsts = append(firsts, x)
		if len(firsts) > window {
			for k := range retire {
				retire[k] = firsts[0] + k
			}
			inc.Retire(retire)
			firsts = append(firsts[:0], firsts[1:]...)
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("steady-state AddChain + AppendArcs + Retire allocates %v times per cycle, want 0", allocs)
	}
	if err := inc.Verify(); err != nil {
		t.Fatal(err)
	}

	// Burst: 4,096 live vertices, drained to the newest 64 by epochs that
	// each retire the older half, as the certifier's epoch rule does.
	for inc.Len() < 4096 {
		firsts = append(firsts, inc.AddChain(size))
	}
	for len(firsts) > window {
		var old []int
		for _, x := range firsts[:len(firsts)/2] {
			for k := 0; k < size; k++ {
				old = append(old, x+k)
			}
		}
		inc.Retire(old)
		firsts = firsts[len(firsts)/2:]
	}
	cycle() // the stream goes on at 64 live vertices
	live := inc.Len()
	if live != window*size {
		t.Fatalf("Len after drain = %d, want %d", live, window*size)
	}
	for name, c := range map[string]int{
		"succ": cap(inc.g.succ), "pred": cap(inc.g.pred), "ord": cap(inc.ord), "pos": cap(inc.pos),
		"ext": cap(inc.ext), "link": cap(inc.link), "intIdx": cap(inc.intIdx), "mark": cap(inc.mark) * wordBits,
		"indeg": cap(inc.indeg), "ready": cap(inc.ready), "order": cap(inc.order), "remap": cap(inc.remap),
	} {
		if c >= 4*live {
			t.Errorf("cap(%s) = %d after draining to %d live vertices, want < %d", name, c, live, 4*live)
		}
	}
	if err := inc.Verify(); err != nil {
		t.Fatal(err)
	}
}
