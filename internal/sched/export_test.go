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
