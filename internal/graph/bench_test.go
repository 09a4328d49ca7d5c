package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func randomDAGArcs(rng *rand.Rand, n int, density float64) [][2]int {
	var arcs [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				arcs = append(arcs, [2]int{u, v})
			}
		}
	}
	rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	return arcs
}

func BenchmarkDenseTopoOrder(b *testing.B) {
	for _, n := range []int{128, 512, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g := NewDense(n)
			for _, a := range randomDAGArcs(rng, n, 0.05) {
				g.AddArc(a[0], a[1])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := g.TopoOrder(); !ok {
					b.Fatal("unexpected cycle")
				}
			}
		})
	}
}

func BenchmarkIncrementalAddArc(b *testing.B) {
	// Pearce-Kelly incremental insertion of a shuffled DAG edge stream,
	// the online schedulers' hot path.
	for _, n := range []int{128, 512, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			arcs := randomDAGArcs(rng, n, 0.05)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inc := NewIncremental(n)
				for _, a := range arcs {
					if err := inc.AddArc(a[0], a[1]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkIncrementalAddArcBatch(b *testing.B) {
	// Epoch-batched insertion: the same shuffled DAG edge stream as
	// BenchmarkIncrementalAddArc, but inserted in fixed-size batches
	// with one cycle sweep per batch — the sharded schedulers' delta
	// merge path.
	for _, batch := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			const n = 512
			rng := rand.New(rand.NewSource(2))
			arcs := randomDAGArcs(rng, n, 0.05)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inc := NewIncremental(n)
				for lo := 0; lo < len(arcs); lo += batch {
					hi := lo + batch
					if hi > len(arcs) {
						hi = len(arcs)
					}
					if err := inc.AddArcBatch(arcs[lo:hi]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkIncrementalVsBatchRecheck(b *testing.B) {
	// The alternative to Pearce-Kelly: rebuild-and-recheck the dense
	// graph on every insertion. The incremental structure's advantage
	// is visible by comparing the two benchmarks.
	const n = 256
	rng := rand.New(rand.NewSource(3))
	arcs := randomDAGArcs(rng, n, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewDense(n)
		for _, a := range arcs {
			g.AddArc(a[0], a[1])
			if g.HasCycle() {
				b.Fatal("unexpected cycle")
			}
		}
	}
}

func BenchmarkIncrementalAppendArcs(b *testing.B) {
	// The two insertion paths the certifier chooses between per request:
	// arcs the vector clocks already proved acyclic are appended with
	// the settle deferred (fast-path hit), while suspected batches go
	// through the per-batch cycle sweep. The gate watches both.
	const n = 512
	rng := rand.New(rand.NewSource(2))
	arcs := randomDAGArcs(rng, n, 0.05)
	b.Run("appendarcs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inc := NewIncremental(n)
			for lo := 0; lo < len(arcs); lo += 4 {
				hi := lo + 4
				if hi > len(arcs) {
					hi = len(arcs)
				}
				inc.AppendArcs(arcs[lo:hi])
			}
			if err := inc.Settle(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("addarcbatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inc := NewIncremental(n)
			for lo := 0; lo < len(arcs); lo += 4 {
				hi := lo + 4
				if hi > len(arcs) {
					hi = len(arcs)
				}
				if err := inc.AddArcBatch(arcs[lo:hi]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkIncrementalRetireStream(b *testing.B) {
	// Steady-state bounded-memory certification: a forward chain of
	// vertices streams through the graph with a sliding live window,
	// retiring in epoch batches once the pending set outnumbers the live
	// half — the schedulers' production retirement schedule. Cost is per
	// streamed vertex, amortizing the epoch compactions.
	for _, epoch := range []int{64, 256} {
		b.Run(fmt.Sprintf("epoch=%d", epoch), func(b *testing.B) {
			const window = 8
			inc := NewIncremental(0)
			var live, retireQ []int
			prev := -1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := inc.AddVertex()
				if prev >= 0 {
					inc.AppendArcs([][2]int{{prev, v}})
				}
				prev = v
				live = append(live, v)
				if len(live) > window {
					retireQ = append(retireQ, live[0])
					live = live[1:]
				}
				if len(retireQ) >= epoch && 2*len(retireQ) >= inc.Len() {
					inc.Retire(retireQ)
					retireQ = retireQ[:0]
				}
			}
		})
	}
	// The per-operation certifier's shape: one op is a 16-vertex AddChain
	// instance with arcs into it from the instance before, retired once
	// eight newer ones are live, under the same epoch rule. B/op is the
	// per-instance garbage the gate watches.
	b.Run("instances", func(b *testing.B) {
		const size, window = 16, 8
		inc := NewIncremental(0)
		var firsts, retireQ []int
		arcs := make([][2]int, 0, size/2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x := inc.AddChain(size)
			arcs = arcs[:0]
			if n := len(firsts); n > 0 {
				for k := 0; k < size; k += 2 {
					arcs = append(arcs, [2]int{firsts[n-1] + k + 1, x + k})
				}
			}
			inc.AppendArcs(arcs)
			if firsts = append(firsts, x); len(firsts) > window {
				for k := 0; k < size; k++ {
					retireQ = append(retireQ, firsts[0]+k)
				}
				firsts = append(firsts[:0], firsts[1:]...)
			}
			if len(retireQ) >= 64 && 2*len(retireQ) >= inc.Len() {
				inc.Retire(retireQ)
				retireQ = retireQ[:0]
			}
		}
	})
}

func BenchmarkDenseTransitiveClosure(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := NewDense(512)
	for _, a := range randomDAGArcs(rng, 512, 0.02) {
		g.AddArc(a[0], a[1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.TransitiveClosure()
	}
}

func BenchmarkSparseHighFanIn(b *testing.B) {
	// The worst case of sorted-slice adjacency: inserting into or
	// deleting from a row moves its tail, so a vertex with ~1 000
	// in-arcs pays O(degree) per arc. Each op removes one of the hub's
	// in-arcs and adds it back, visiting the sources in shuffled order.
	const fanIn = 1000
	rng := rand.New(rand.NewSource(5))
	g := NewSparse(fanIn + 1)
	srcs := rng.Perm(fanIn)
	for _, s := range srcs {
		g.AddArc(s+1, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := srcs[i%fanIn] + 1
		g.RemoveArc(s, 0)
		g.AddArc(s, 0)
	}
}
