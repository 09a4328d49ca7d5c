package main

import (
	"sort"
	"strconv"
	"time"
)

// refKeys are the reference kernel's object names.
var refKeys = func() []string {
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = "ref_" + strconv.Itoa(i)
	}
	return keys
}()

type refEvent struct {
	inst  int64
	key   string
	order int64
	next  *refEvent
}

var refSink int64

// refNominal is the duration of one reference pass on the host speed
// all time metrics are scaled to (a quiet moment of the 2-vCPU sandbox
// this benchmark was sized on). It only fixes the scale; comparisons
// between two commits do not depend on it.
const refNominal = 10 * time.Millisecond

// refKernel is a fixed piece of work shaped like what the stack does to
// memory: string-keyed map updates, slice growth, small allocations
// linked by pointers, bitset unions and a sort. It touches no relser
// package, so a change to the program under test cannot move it. It
// returns how long one pass took.
func refKernel() time.Duration {
	start := time.Now()
	hist := make(map[string][]int64, len(refKeys))
	events := make([]*refEvent, 0, 1024)
	var head *refEvent
	sets := make([][]uint64, 64)
	for i := range sets {
		sets[i] = make([]uint64, 64)
	}
	x := uint64(1)
	for i := int64(0); i < 40_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := refKeys[(x>>33)%uint64(len(refKeys))]
		h := append(hist[k], i)
		if len(h) > 48 {
			h = append([]int64(nil), h[24:]...)
		}
		hist[k] = h
		ev := &refEvent{inst: i, key: k, order: int64(x >> 40), next: head}
		head = ev
		events = append(events, ev)
		a, b := sets[(x>>20)%64], sets[(x>>26)%64]
		for w := range a {
			a[w] |= b[w] | x
		}
		if len(events) == cap(events) {
			sort.Slice(events, func(i, j int) bool { return events[i].order < events[j].order })
			for n := head; n != nil; n = n.next {
				refSink += n.order
			}
			events, head = events[:0], nil
		}
	}
	refSink += int64(len(hist))
	return time.Since(start)
}
