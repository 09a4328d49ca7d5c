package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"relser/internal/consistent"
	"relser/internal/core"
	"relser/internal/metrics"
	"relser/internal/paperfig"
	"relser/internal/workload"
)

// randomInterleaving builds a uniformly random complete schedule over
// the set.
func randomInterleaving(rng *rand.Rand, ts *core.TxnSet) *core.Schedule {
	cursors := make([]int, ts.NumTxns())
	txns := ts.Txns()
	remaining := ts.NumOps()
	ops := make([]core.Op, 0, remaining)
	for remaining > 0 {
		k := rng.Intn(len(txns))
		if cursors[k] == txns[k].Len() {
			continue
		}
		ops = append(ops, txns[k].Op(cursors[k]))
		cursors[k]++
		remaining--
	}
	return core.MustSchedule(ts, ops)
}

// syntheticInstance generates a transaction set with a uniform
// granularity spec and one random interleaving of it.
func syntheticInstance(totalOps, opsPerTxn, objects, granularity int, seed int64) (*core.Schedule, *core.Spec, error) {
	cfg := workload.SyntheticConfig{
		Objects:     objects,
		Programs:    (totalOps + opsPerTxn - 1) / opsPerTxn,
		OpsPerTxn:   opsPerTxn,
		WriteRatio:  0.3,
		Granularity: granularity,
	}
	w, err := workload.Synthetic(cfg, seed)
	if err != nil {
		return nil, nil, err
	}
	ts, err := core.NewTxnSet(w.Programs...)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	s := randomInterleaving(rng, ts)
	sp, err := core.SpecFromCuts(ts, w.Oracle.Cuts)
	if err != nil {
		return nil, nil, err
	}
	return s, sp, nil
}

// runE6 measures RSG construction plus acyclicity testing against
// schedule length: the §3 claim that recognition is polynomial.
func runE6(opts Options) (*Report, error) {
	rep := &Report{}
	sizes := []int{256, 512, 1024, 2048, 4096, 8192}
	if opts.Quick {
		sizes = []int{128, 256, 512}
	}
	tb := metrics.NewTable("RSG build + acyclicity vs schedule length",
		"ops", "arcs", "tested arcs", "tested/arcs", "time", "ns/op^2", "acyclic")
	var density []float64 // arcs per ops², deterministic in (sizes, seed)
	reduced := true       // tested arcs <= Definition 3 arcs at every size
	for _, n := range sizes {
		s, sp, err := syntheticInstance(n, 8, n/4, 2, opts.Seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rsg := core.BuildRSG(s, sp)
		ac := rsg.Acyclic()
		elapsed := time.Since(start)
		n2 := float64(n) * float64(n)
		arcs, tested := rsg.NumArcs(), rsg.TestedArcs() // Definition 3's graph is built here, outside the timed test
		density = append(density, float64(arcs)/n2)
		reduced = reduced && tested <= arcs
		tb.AddRow(n, arcs, tested, float64(tested)/float64(arcs), elapsed, float64(elapsed.Nanoseconds())/n2, boolMark(ac))
	}
	rep.Tables = append(rep.Tables, tb)
	// Polynomial check on the graph itself, not the clock: the arc count
	// per ops² must stay bounded across the sweep. The timing columns are
	// data (the ladder's certify-offline workload measures the test).
	bounded := true
	for _, d := range density {
		bounded = bounded && d <= 2*density[0]
	}
	rep.AddClaim(bounded,
		"the RSG grows no worse than quadratically in schedule length: arcs/ops² stays within 2x of its smallest-size value across the sweep (the test is polynomial, §3)")
	rep.AddClaim(reduced,
		"the graph the test runs on (I-arcs plus the staircase F/B-arcs, THEORY §4) has no more arcs than Definition 3's at every size")
	rep.AddNote("D-arcs are dense in the worst case, so the expected shape is Θ(n²) — polynomial, versus the NP-complete relatively-consistent test (E7)")
	return rep, nil
}

// e7Instance builds the adversarial family for the exponential
// separation: the Figure 4 core (unsatisfiable for the RC search) plus
// p padding transactions whose operations carry no dependencies but sit
// astride the core's atomic units — exactly the ambiguity §2 blames for
// NP-completeness. Every padding placement must be explored before the
// search can conclude "no".
func e7Instance(padding int) (*core.Schedule, *core.Spec, error) {
	fig := paperfig.Figure4()
	txns := append([]*core.Transaction(nil), fig.Set.Txns()...)
	nextID := core.TxnID(5)
	for p := 0; p < padding; p++ {
		obj := fmt.Sprintf("pad%d", p)
		txns = append(txns, core.T(nextID, core.W(obj), core.W(obj)))
		nextID++
	}
	ts, err := core.NewTxnSet(txns...)
	if err != nil {
		return nil, nil, err
	}
	sp := core.NewSpec(ts)
	// Rebuild the Figure 4 specification on the enlarged set.
	for _, pair := range [][4]core.TxnID{{2, 4}, {3, 2}, {3, 4}, {4, 2}, {4, 3}} {
		if err := sp.SetUnits(pair[0], pair[1], 1, 1); err != nil {
			return nil, nil, err
		}
	}
	// Padding transactions are absolute to everyone (defaults), and the
	// core is absolute to them, keeping them dependency-free but
	// position-constrained.
	figOps := fig.Schedules["S"].Ops()
	ops := make([]core.Op, 0, ts.NumOps())
	ops = append(ops, figOps[:4]...) // w4x w3t w4t w1x
	for p := 0; p < padding; p++ {
		ops = append(ops, ts.Txn(core.TxnID(5+p)).Op(0))
	}
	ops = append(ops, figOps[4:6]...) // w1y w2z
	for p := 0; p < padding; p++ {
		ops = append(ops, ts.Txn(core.TxnID(5+p)).Op(1))
	}
	ops = append(ops, figOps[6:]...) // w2y w3z
	s, err := core.NewSchedule(ts, ops)
	if err != nil {
		return nil, nil, err
	}
	return s, sp, nil
}

// runE7 contrasts the exact relatively-consistent decision procedure
// (exponential state space) with the polynomial RSG test on the
// adversarial family.
func runE7(opts Options) (*Report, error) {
	rep := &Report{}
	paddings := []int{0, 2, 4, 6, 8, 10}
	if opts.Quick {
		paddings = []int{0, 2, 4}
	}
	tb := metrics.NewTable("Relatively-consistent search vs RSG test",
		"padding txns", "ops", "RC states", "RC time", "RSG time", "RC verdict", "RSG verdict")
	var states []int
	for _, p := range paddings {
		s, sp, err := e7Instance(p)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res := consistent.IsRelativelyConsistent(s, sp)
		rcTime := time.Since(start)
		start = time.Now()
		rser := core.IsRelativelySerializable(s, sp)
		rsgTime := time.Since(start)
		states = append(states, res.StatesExplored)
		tb.AddRow(p, s.Len(), res.StatesExplored, rcTime, rsgTime,
			boolMark(res.Consistent), boolMark(rser))
		if res.Consistent {
			rep.AddClaim(false, "padding %d: instance unexpectedly became relatively consistent", p)
		}
		if !rser {
			rep.AddClaim(false, "padding %d: instance must stay relatively serializable (padding is dependency-free)", p)
		}
	}
	rep.Tables = append(rep.Tables, tb)
	growth := float64(states[len(states)-1]) / float64(states[0])
	perStep := float64(states[len(states)-1]) / float64(states[len(states)-2])
	rep.AddClaim(growth > 8 && perStep > 1.5,
		"RC search states grow multiplicatively with padding (×%.0f overall), while the RSG test stays polynomial", growth)
	rep.AddNote("the padding operations have no dependencies yet sit astride atomic units — the exact §2 ambiguity behind the NP-completeness of [KB92]")
	return rep, nil
}
