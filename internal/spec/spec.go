// Package spec provides higher-level front-ends that compile into the
// general relative atomicity specifications of internal/core,
// reproducing the related-work models §1 and §4 of the paper compare
// against:
//
//   - Garcia-Molina's compatibility sets [Gar83]: transactions in the
//     same set interleave arbitrarily; transactions in different sets
//     observe each other as single atomic units.
//   - Lynch's multilevel (hierarchical) atomicity [Lyn83]: transactions
//     are the leaves of a hierarchy; a transaction's atomic units
//     relative to another are determined by their lowest common
//     ancestor, with finer units for closer relatives.
//
// Farrag and Özsu's breakpoints [FÖ89], per-observer cut positions,
// need no front-end: they are core.Spec.CutAfter.
//
// The package also decides *expressibility*: MultilevelExpressible
// reports whether a general relative atomicity specification can be
// realized by any multilevel hierarchy, witnessing the paper's claim
// that "it is easy to construct examples that can be specified using
// relative atomicity but cannot be specified using multilevel
// atomicity" (§4).
package spec

import (
	"fmt"

	"relser/internal/core"
)

// CompatibilitySets compiles Garcia-Molina's model: groups partitions
// the transaction IDs of ts; members of one group are fully
// interleavable with each other, and transactions in different groups
// are mutually absolute. Every transaction must appear in exactly one
// group.
func CompatibilitySets(ts *core.TxnSet, groups [][]core.TxnID) (*core.Spec, error) {
	seen := make(map[core.TxnID]int)
	for gi, g := range groups {
		for _, id := range g {
			if !ts.Has(id) {
				return nil, fmt.Errorf("spec: compatibility set %d names unknown transaction T%d", gi, id)
			}
			if prev, dup := seen[id]; dup {
				return nil, fmt.Errorf("spec: transaction T%d appears in compatibility sets %d and %d", id, prev, gi)
			}
			seen[id] = gi
		}
	}
	for _, t := range ts.Txns() {
		if _, ok := seen[t.ID]; !ok {
			return nil, fmt.Errorf("spec: transaction T%d is in no compatibility set", t.ID)
		}
	}
	sp := core.NewSpec(ts)
	for _, ti := range ts.Txns() {
		for _, tj := range ts.Txns() {
			if ti.ID == tj.ID {
				continue
			}
			if seen[ti.ID] == seen[tj.ID] {
				if err := sp.AllowAll(ti.ID, tj.ID); err != nil {
					return nil, err
				}
			}
			// Different sets: absolute atomicity, the default.
		}
	}
	return sp, nil
}
