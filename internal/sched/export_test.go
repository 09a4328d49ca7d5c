package sched

// DotSnapshot exposes the live-graph DOT export to the external tests.
func (p *RSGT) DotSnapshot() string { return p.dotSnapshot(nil) }
