package experiments

import (
	"fmt"
	"strings"

	"relser/internal/core"
	"relser/internal/metrics"
	"relser/internal/sched"
	"relser/internal/workload"
)

type protoAgg struct {
	ticks, commits, aborts, blocks int
	runs                           int
	verified                       bool
}

// runE8 compares the online protocols on the banking workload across
// multiprogramming levels; every run's committed schedule is certified
// with the offline RSG test.
func runE8(opts Options) (*Report, error) {
	rep := &Report{}
	seeds := []int64{1, 2, 3, 4, 5}
	mpls := []int{2, 4, 8}
	cfg := workload.DefaultBankingConfig()
	cfg.Customers = 16
	cfg.CreditAudits = 4
	cfg.CrossingAudits = true
	if opts.Quick {
		seeds = []int64{1, 2}
		mpls = []int{4}
		cfg.Customers = 8
		cfg.CreditAudits = 2
	}
	tb := metrics.NewTable("Banking workload: protocol comparison",
		"mpl", "protocol", "commits/ktick", "ticks(avg)", "aborts(avg)", "blocks(avg)", "verified")
	type key struct {
		mpl  int
		name string
	}
	aggs := map[key]*protoAgg{}
	var order []key
	for _, mpl := range mpls {
		for _, seed := range seeds {
			w, err := workload.Banking(cfg, opts.Seed+seed)
			if err != nil {
				return nil, err
			}
			for _, name := range []string{"s2pl", "altruistic", "to", "ral", "sgt", "rsgt"} {
				p, err := sched.NewProtocol(name, w.Oracle)
				if err != nil {
					return nil, err
				}
				res, _, err := w.RunWith(p, workload.RunOptions{
					Seed: seed, MPL: mpl, Tracer: opts.Tracer, Metrics: opts.Metrics,
					Obs: opts.Obs, Timeout: opts.Timeout,
				})
				if err != nil {
					return nil, fmt.Errorf("%s mpl=%d seed=%d: %v", name, mpl, seed, err)
				}
				k := key{mpl, name}
				a := aggs[k]
				if a == nil {
					a = &protoAgg{verified: true}
					aggs[k] = a
					order = append(order, k)
				}
				a.runs++
				a.ticks += res.Ticks
				a.commits += res.Committed
				a.aborts += res.Aborts
				a.blocks += res.Blocks
				if err := res.Verify(); err != nil {
					a.verified = false
					rep.AddClaim(false, "%s mpl=%d seed=%d emitted a non-relatively-serializable schedule: %v", name, mpl, seed, err)
				}
			}
		}
	}
	throughput := map[key]float64{}
	for _, k := range order {
		a := aggs[k]
		tput := 1000 * float64(a.commits) / float64(a.ticks)
		throughput[k] = tput
		tb.AddRow(k.mpl, k.name, tput, float64(a.ticks)/float64(a.runs),
			float64(a.aborts)/float64(a.runs), float64(a.blocks)/float64(a.runs), boolMark(a.verified))
	}
	rep.Tables = append(rep.Tables, tb)

	allVerified := true
	for _, a := range aggs {
		allVerified = allVerified && a.verified
	}
	rep.AddClaim(allVerified, "every committed schedule of every protocol run is relatively serializable (Theorem 1 certification)")
	topMPL := mpls[len(mpls)-1]
	rep.AddClaim(throughput[key{topMPL, "rsgt"}] > throughput[key{topMPL, "s2pl"}],
		"RSGT outperforms strict 2PL at mpl=%d on the banking mix (relative atomicity buys concurrency, §1)", topMPL)
	rep.AddNote("expected shape: rsgt ≥ sgt ≥ locking protocols in commits per tick as contention rises; absolute numbers are simulator ticks, not wall time")

	if err := e8SeparationWitness(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// e8SeparationWitness replays a crossing-audit interleaving through
// SGT and RSGT deterministically: two audits scan two family balances
// in opposite orders with customer updates between their phases. The
// execution's serialization graph is cyclic (SGT must abort an audit),
// yet every interleaving respects the audits' family-border unit
// boundaries, so the relative serialization graph stays acyclic and
// RSGT admits everything.
func e8SeparationWitness(rep *Report) error {
	a1 := core.T(1, core.R("f1"), core.R("f2"))
	a2 := core.T(2, core.R("f2"), core.R("f1"))
	c1 := core.T(3, core.R("f1"), core.W("f1"))
	c2 := core.T(4, core.R("f2"), core.W("f2"))
	ts, err := core.NewTxnSet(a1, a2, c1, c2)
	if err != nil {
		return err
	}
	sp := core.NewSpec(ts)
	for _, obs := range []core.TxnID{2, 3, 4} {
		if err := sp.SetUnits(1, obs, 1, 1); err != nil {
			return err
		}
	}
	for _, obs := range []core.TxnID{1, 3, 4} {
		if err := sp.SetUnits(2, obs, 1, 1); err != nil {
			return err
		}
	}
	s, err := core.ParseSchedule(ts,
		"r1[f1] r2[f2] r3[f1] w3[f1] r4[f2] w4[f2] r2[f1] r1[f2]")
	if err != nil {
		return err
	}
	rep.AddClaim(!core.IsConflictSerializable(s),
		"separation witness: the crossing-audit interleaving is NOT conflict serializable")
	rep.AddClaim(core.IsRelativelySerializable(s, sp),
		"separation witness: it IS relatively serializable under family-border units")

	oracle := sched.SpecOracle{Spec: sp}
	sgtDecisions := replayThrough(sched.NewSGT(), s)
	rsgtDecisions := replayThrough(sched.NewRSGT(oracle), s)
	tb := metrics.NewTable("SGT vs RSGT on the separation witness",
		"protocol", "decisions", "outcome")
	tb.AddRow("sgt", decisionString(sgtDecisions), outcomeOf(sgtDecisions))
	tb.AddRow("rsgt", decisionString(rsgtDecisions), outcomeOf(rsgtDecisions))
	rep.Tables = append(rep.Tables, tb)
	rep.AddClaim(hasAbort(sgtDecisions), "SGT aborts a transaction on the witness (conflict cycle)")
	rep.AddClaim(!hasAbort(rsgtDecisions) && len(rsgtDecisions) == s.Len(),
		"RSGT admits every operation of the witness (RSG stays acyclic)")
	return nil
}

// replayThrough feeds a schedule in order through a non-blocking
// protocol, stopping after the first abort.
func replayThrough(p sched.Protocol, s *core.Schedule) []sched.Decision {
	ts := s.Set()
	for _, tx := range ts.Txns() {
		p.Begin(int64(tx.ID), tx)
	}
	executed := make(map[core.TxnID]int)
	var out []sched.Decision
	for pos := 0; pos < s.Len(); pos++ {
		op := s.At(pos)
		tx := ts.Txn(op.Txn)
		d := p.Request(sched.OpRequest{Instance: int64(op.Txn), Program: tx, Seq: executed[op.Txn], Op: op})
		out = append(out, d)
		if d != sched.Grant {
			p.Abort(int64(op.Txn))
			return out
		}
		executed[op.Txn]++
		if executed[op.Txn] == tx.Len() {
			p.Commit(int64(op.Txn))
		}
	}
	return out
}

func decisionString(ds []sched.Decision) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = d.String()
	}
	return strings.Join(parts, " ")
}

func outcomeOf(ds []sched.Decision) string {
	if hasAbort(ds) {
		return "aborted at op " + fmt.Sprint(len(ds))
	}
	return "all admitted"
}

func hasAbort(ds []sched.Decision) bool {
	for _, d := range ds {
		if d != sched.Grant {
			return true
		}
	}
	return false
}

// runE9 sweeps the atomicity granularity knob on the synthetic
// workload: from absolute atomicity (classical model) to fully
// breakable transactions, measuring what the relaxation buys RSGT and
// what altruistic locking extracts from the same boundaries.
func runE9(opts Options) (*Report, error) {
	rep := &Report{}
	grans := []int{0, 8, 4, 2, 1}
	seeds := []int64{1, 2, 3}
	cfg := workload.DefaultSyntheticConfig()
	cfg.Programs = 20
	if opts.Quick {
		grans = []int{0, 2}
		seeds = []int64{1}
		cfg.Programs = 10
	}
	tb := metrics.NewTable("Granularity sweep (synthetic, RSGT and altruistic)",
		"granularity", "protocol", "commits/ktick", "aborts(avg)", "blocks(avg)", "verified")
	type row struct {
		tput, aborts, blocks float64
		verified             bool
	}
	results := map[int]map[string]*row{}
	for _, g := range grans {
		results[g] = map[string]*row{}
		for _, proto := range []string{"rsgt", "altruistic"} {
			agg := &protoAgg{verified: true}
			for _, seed := range seeds {
				cfg.Granularity = g
				w, err := workload.Synthetic(cfg, opts.Seed+seed)
				if err != nil {
					return nil, err
				}
				var p sched.Protocol
				if proto == "rsgt" {
					p = sched.NewRSGT(w.Oracle)
				} else {
					p = sched.NewAltruistic(w.Oracle)
				}
				res, _, err := w.RunWith(p, workload.RunOptions{
					Seed: seed, MPL: 8, Tracer: opts.Tracer, Metrics: opts.Metrics,
					Obs: opts.Obs, Timeout: opts.Timeout,
				})
				if err != nil {
					return nil, fmt.Errorf("g=%d %s seed=%d: %v", g, proto, seed, err)
				}
				agg.runs++
				agg.ticks += res.Ticks
				agg.commits += res.Committed
				agg.aborts += res.Aborts
				agg.blocks += res.Blocks
				if err := res.Verify(); err != nil {
					agg.verified = false
				}
			}
			r := &row{
				tput:     1000 * float64(agg.commits) / float64(agg.ticks),
				aborts:   float64(agg.aborts) / float64(agg.runs),
				blocks:   float64(agg.blocks) / float64(agg.runs),
				verified: agg.verified,
			}
			results[g][proto] = r
			gname := fmt.Sprint(g)
			if g == 0 {
				gname = "absolute"
			}
			tb.AddRow(gname, proto, r.tput, r.aborts, r.blocks, boolMark(r.verified))
		}
	}
	rep.Tables = append(rep.Tables, tb)
	for _, g := range grans {
		for _, proto := range []string{"rsgt", "altruistic"} {
			if !results[g][proto].verified {
				rep.AddClaim(false, "g=%d %s emitted an uncertified schedule", g, proto)
			}
		}
	}
	finest := grans[len(grans)-1]
	rep.AddClaim(results[finest]["rsgt"].aborts <= results[0]["rsgt"].aborts,
		"relaxing granularity does not increase RSGT aborts (finer units remove cycles)")
	rep.AddClaim(len(rep.Claims) == 1 || rep.Pass(), "all runs certified relatively serializable")
	rep.AddNote("expected shape: aborts and blocks fall as units shrink; absolute atomicity reproduces the classical schedulers' behaviour")
	return rep, nil
}
