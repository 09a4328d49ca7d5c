package core

import "relser/internal/graph"

// TestedGraph exposes the dominance-reduced graph Acyclic, Cycle and
// Witness run on, so tests can compare its reachability with
// Definition 3's.
func (r *RSG) TestedGraph() *graph.Dense { return r.g }
