package main

import (
	"bytes"
	"math/rand"
	"sort"
	"time"

	"relser/internal/graph"
	"relser/internal/storage"
	"relser/internal/workload"
)

// The layers below cannot be intercepted from outside: graph.Incremental
// lives inside RSGT, and the store is called by the engine directly. The
// traced reps therefore time direct calls into them, over inputs shaped
// like the workload's.

const (
	microVertices = 4096
	microArcs     = 4 * microVertices
	microPaths    = 256
)

// graphMicro drives graph.Incremental with a fixed seeded arc stream.
// Forward arcs (already in order) take the AppendArcs path RSGT's
// fast path uses; arcs drawn against a hidden permutation force
// Pearce-Kelly reorders on the AddArc path the slow path uses.
func graphMicro(seed int64) map[string]float64 {
	rng := rand.New(rand.NewSource(seed))
	pair := func() (int, int) {
		a, b := rng.Intn(microVertices), rng.Intn(microVertices-1)
		if b >= a {
			b++
		}
		return min(a, b), max(a, b)
	}

	fwd := graph.NewIncremental(microVertices)
	batch := make([][2]int, 0, 16)
	arcs := make([][2]int, microArcs)
	for i := range arcs {
		u, v := pair()
		arcs[i] = [2]int{u, v}
	}
	start := time.Now()
	for _, a := range arcs {
		if batch = append(batch, a); len(batch) == cap(batch) {
			fwd.AppendArcs(batch)
			batch = batch[:0]
		}
	}
	fwd.AppendArcs(batch)
	appendNs := float64(time.Since(start)) / microArcs

	hidden := rng.Perm(microVertices)
	for i := range arcs {
		u, v := pair()
		arcs[i] = [2]int{hidden[u], hidden[v]}
	}
	pk := graph.NewIncremental(microVertices)
	start = time.Now()
	for _, a := range arcs {
		if err := pk.AddArc(a[0], a[1]); err != nil {
			panic("benchmark: acyclic arc stream refused: " + err.Error())
		}
	}
	addNs := float64(time.Since(start)) / microArcs

	start = time.Now()
	for i := 0; i < microPaths; i++ {
		u, v := pair()
		pk.FindPath(hidden[u], hidden[v])
	}
	pathUs := float64(time.Since(start)) / 1e3 / microPaths

	half := make([]int, 0, microVertices/2)
	for v := 0; v < microVertices; v += 2 {
		half = append(half, v)
	}
	start = time.Now()
	pk.Retire(half)
	retireNs := float64(time.Since(start)) / float64(len(half))

	return map[string]float64{
		"graph.append_arc_ns":        appendNs,
		"graph.add_arc_ns":           addNs,
		"graph.find_path_us":         pathUs,
		"graph.retire_ns_per_vertex": retireNs,
	}
}

// storeMicro times Store.Read and UndoLog.WriteLogged over the
// workload's key set.
func storeMicro(w *workload.Workload) map[string]float64 {
	keys := make([]string, 0, len(w.Initial))
	for k := range w.Initial {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const passes = 32
	st := storage.NewStore()
	st.Load(w.Initial)
	start := time.Now()
	for p := 0; p < passes; p++ {
		for _, k := range keys {
			st.Read(k)
		}
	}
	readNs := float64(time.Since(start)) / float64(passes*len(keys))
	var undo storage.UndoLog
	start = time.Now()
	for p := 0; p < passes; p++ {
		for _, k := range keys {
			undo.WriteLogged(st, k, storage.Value(p))
		}
		undo.Discard()
	}
	writeNs := float64(time.Since(start)) / float64(passes*len(keys))
	return map[string]float64{"storage.store.read_ns": readNs, "storage.store.write_ns": writeNs}
}

// timeSegmentScan times storage.ScanSegment over every segment of the
// crash image: the decode share of recovery.
func timeSegmentScan(set *storage.SegmentSet) (float64, error) {
	start := time.Now()
	for _, segs := range set.Shards {
		for _, seg := range segs {
			if _, _, _, err := storage.ScanSegment(bytes.NewReader(seg)); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start).Seconds(), nil
}
