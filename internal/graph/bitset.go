// Package graph provides the directed-graph machinery used throughout
// relser: dense bitset digraphs for serialization-graph work, sparse
// adjacency-list digraphs for scheduler bookkeeping, cycle detection,
// topological sorting, strongly connected components, incremental
// topological-order maintenance (Pearce–Kelly), and DOT export.
//
// Everything in this package is deterministic: iteration orders depend
// only on vertex numbering, never on map iteration.
package graph

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bitset is a fixed-capacity set of small non-negative integers backed
// by a []uint64. The zero value is an empty set of capacity zero; use
// NewBitset to allocate capacity up front.
type Bitset []uint64

// NewBitset returns an empty bitset able to hold values in [0, n).
func NewBitset(n int) Bitset {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewBitset with negative capacity %d", n))
	}
	return make(Bitset, (n+wordBits-1)/wordBits)
}

// Set adds i to the set. i must be within capacity.
func (b Bitset) Set(i int) { b[i/wordBits] |= 1 << uint(i%wordBits) }

// Clear removes i from the set. i must be within capacity.
func (b Bitset) Clear(i int) { b[i/wordBits] &^= 1 << uint(i%wordBits) }

// Has reports whether i is in the set. Values at or beyond capacity
// report false rather than panicking, which simplifies probing.
func (b Bitset) Has(i int) bool {
	w := i / wordBits
	if w < 0 || w >= len(b) {
		return false
	}
	return b[w]&(1<<uint(i%wordBits)) != 0
}

// UnionWith adds every element of other to b and reports whether b
// gained one. The sets must have the same capacity.
func (b Bitset) UnionWith(other Bitset) bool {
	if len(b) != len(other) {
		panic(fmt.Sprintf("graph: UnionWith capacity mismatch %d != %d", len(b)*wordBits, len(other)*wordBits))
	}
	changed := false
	for i, w := range other {
		if b[i]|w != b[i] {
			b[i] |= w
			changed = true
		}
	}
	return changed
}

// Intersects reports whether b and other share an element. The sets
// must have the same capacity.
func (b Bitset) Intersects(other Bitset) bool {
	if len(b) != len(other) {
		panic(fmt.Sprintf("graph: Intersects capacity mismatch %d != %d", len(b)*wordBits, len(other)*wordBits))
	}
	for i, w := range other {
		if b[i]&w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of elements in the set.
func (b Bitset) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset removes all elements, keeping capacity.
func (b Bitset) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// ForEach calls fn for every element in ascending order. If fn returns
// false, iteration stops early.
func (b Bitset) ForEach(fn func(i int) bool) {
	for wi, w := range b {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// Elements returns the members of the set in ascending order.
func (b Bitset) Elements() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders the set as "{a, b, c}" for debugging.
func (b Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
