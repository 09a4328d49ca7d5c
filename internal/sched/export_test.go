package sched

// DotSnapshot exposes the live-graph DOT export to the external tests.
func (p *RSGT) DotSnapshot() string { return p.dotSnapshot(nil) }

// DonationRecords reports how many instances the lock-donation core of
// an Altruistic or RAL protocol still keeps a record for.
func DonationRecords(p Protocol) int {
	switch p := p.(type) {
	case *Altruistic:
		return len(p.recs)
	case *RAL:
		return len(p.recs)
	}
	panic("sched: " + p.Name() + " has no donation core")
}

// Stranded returns the ids of the committed instances p's graph still
// holds that no vertex of a live instance reaches, found by a plain
// forward walk from every live vertex.
func Stranded(p *RSGT) []int64 {
	reached := map[int]bool{}
	var stack []int
	for _, inst := range p.live {
		for v := inst.first; v < inst.end(); v++ {
			reached[v] = true
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range p.g.Successors(v) {
			if !reached[w] {
				reached[w] = true
				stack = append(stack, w)
			}
		}
	}
	var out []int64
	for _, inst := range p.committed {
		hit := false
		for v := inst.first; v < inst.end(); v++ {
			hit = hit || reached[v]
		}
		if !hit {
			out = append(out, inst.id)
		}
	}
	return out
}
