package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"relser/internal/core"
	"relser/internal/metrics"
	"relser/internal/sched"
	"relser/internal/workload"
)

// e20Soak is one measured soak leg: a window of live transactions
// streams through the certifier while history accumulates (or
// retires).
type e20Soak struct {
	maxLive  int     // peak RSG vertex count observed at sample points
	maxExec  int     // peak dependency-index entry count at sample points
	tput     float64 // certification requests per second
	retained uint64  // heap bytes retained across the run (post-GC delta)
	stats    sched.RetireStats
}

// e20Window is the live-transaction window the soak holds open; with
// retirement on, memory must track this window, not the soak length.
const e20Window = 8

// runE20 measures bounded-memory certification (ISSUE: epoch-based
// graph retirement + vector-clock fast path). Three cells:
//
//  1. Soak: a sliding window of e20Window live transactions, each
//     reading its predecessor's object and writing its own, streams
//     through RSGT. With retirement on, the graph and the dependency
//     index stay bounded by epoch thresholds regardless of soak length
//     and throughput stays flat; with retirement off, the graph holds
//     every vertex ever created (2 per transaction) and nothing the
//     dependency index ever held is dropped, so the off legs run at
//     deliberately smaller sizes.
//  2. Fast-path hit rate on the E15 workload mix under RSGT through
//     the serial driver: >=90% of certification requests must avoid
//     the full cycle sweep.
//  3. Verdict equivalence: with retirement forced aggressive (a flush
//     after every commit), online RSGT must agree with the offline
//     Theorem 1 test and online SGT with the classical conflict-
//     serializability test on every random schedule.
func runE20(opts Options) (*Report, error) {
	rep := &Report{}

	onSizes := []int{250_000, 500_000, 1_000_000}
	offSizes := []int{15_000, 30_000, 60_000}
	if opts.Quick {
		onSizes = []int{5_000, 10_000, 20_000}
		offSizes = []int{1_000, 2_000, 4_000}
	}

	tb := metrics.NewTable("RSGT soak: sliding window of 8 live txns (chain workload)",
		"txns", "retire", "ops/sec", "peak vertices", "peak dep entries",
		"retired", "epochs", "rebases", "fastpath", "retained KB")
	row := func(n int, mode string, r e20Soak) {
		fp := "-"
		if r.stats.Enabled {
			fp = fmt.Sprintf("%.1f%%", 100*r.stats.HitRate())
		}
		tb.AddRow(n, mode, fmt.Sprintf("%.0f", r.tput), r.maxLive, r.maxExec,
			r.stats.RetiredVertices, r.stats.GraphEpochs, r.stats.Rebases, fp, r.retained/1024)
	}

	on := make([]e20Soak, len(onSizes))
	for i, n := range onSizes {
		on[i] = soakRSGT(n, true)
		row(n, "on", on[i])
	}
	off := make([]e20Soak, len(offSizes))
	for i, n := range offSizes {
		off[i] = soakRSGT(n, false)
		row(n, "off", off[i])
	}
	rep.Tables = append(rep.Tables, tb)

	// Bounded vs monotone growth — deterministic counters, not timing.
	bounded := true
	for i, r := range on {
		// Epoch thresholds cap the graph at the pending-queue trigger
		// (retire fires at 64 pending once they outnumber the live half)
		// and the dependency index at the rebase trigger (2x the 1024
		// entry floor), independent of soak length.
		if r.maxLive > 256 || r.maxExec > 4096 {
			bounded = false
			rep.AddNote("soak %d txns (on): peak vertices %d / dep entries %d exceed the epoch-threshold bound",
				onSizes[i], r.maxLive, r.maxExec)
		}
	}
	rep.AddClaim(bounded,
		"retirement on: peak graph size and dependency index stay under the epoch-threshold bounds (256 vertices, 4096 entries) at every soak length up to %d txns", onSizes[len(onSizes)-1])

	monotone := true
	for i, r := range off {
		if r.stats.LiveVertices != 2*offSizes[i] {
			monotone = false
		}
	}
	rep.AddClaim(monotone,
		"retirement off: the graph ends holding exactly 2 vertices per transaction at every size — memory grows linearly with history")

	allHits := true
	for _, r := range on {
		if r.stats.HitRate() < 0.99 {
			allHits = false
		}
	}
	rep.AddClaim(allHits,
		"retirement on: the vector-clock fast path certifies >=99%% of chain-soak requests without a cycle sweep (forward arcs never look like a cycle)")

	if !opts.Quick {
		first, last := on[0], on[len(on)-1]
		rep.AddClaim(last.tput >= 0.5*first.tput,
			"retirement on: throughput is flat across a %dx soak-length sweep (%.0f ops/sec at %d txns vs %.0f at %d)",
			onSizes[len(onSizes)-1]/onSizes[0], last.tput, onSizes[len(onSizes)-1], first.tput, onSizes[0])
	}

	// Cell 2: fast-path hit rate on the E15 mix, end to end through the
	// serial driver (engine Admit/Commit hooks feed the low-water mark).
	mixCfg := workload.SyntheticConfig{
		Objects:     512,
		Programs:    1024,
		OpsPerTxn:   16,
		WriteRatio:  0.25,
		Granularity: 0,
		HotFraction: 0,
	}
	if opts.Quick {
		mixCfg.Programs = 96
	}
	w, err := workload.Synthetic(mixCfg, opts.Seed)
	if err != nil {
		return nil, err
	}
	p, err := sched.NewProtocol("rsgt", w.Oracle)
	if err != nil {
		return nil, err
	}
	res, _, err := w.RunWith(p, workload.RunOptions{Seed: opts.Seed, MPL: 8, Timeout: opts.Timeout})
	if err != nil {
		return nil, fmt.Errorf("E15-mix run: %v", err)
	}
	ret := res.Retire
	mt := metrics.NewTable("E15 workload mix under RSGT (serial driver, retirement on)",
		"programs", "committed", "fastpath hits", "misses", "hit rate", "retired", "live after finalize")
	mt.AddRow(mixCfg.Programs, res.Committed, ret.FastPathHits, ret.FastPathMisses,
		fmt.Sprintf("%.1f%%", 100*ret.HitRate()), ret.RetiredVertices, ret.LiveVertices)
	rep.Tables = append(rep.Tables, mt)
	rep.AddClaim(ret.Enabled && ret.HitRate() >= 0.9,
		"the fast path certifies >=90%% of E15-mix requests (measured %.1f%%)", 100*ret.HitRate())
	rep.AddClaim(ret.LiveVertices == 0 && ret.PendingRetire == 0,
		"Finalize leaves no live or retirement-pending vertices behind")

	// Cell 3: verdict equivalence under aggressive retirement.
	trials := 2000
	if opts.Quick {
		trials = 300
	}
	rng := rand.New(rand.NewSource(opts.Seed + 20))
	rsgtAgree, sgtAgree, serializable := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		sp, s := randomSpecInstance(rng)
		if core.IsRelativelySerializable(s, sp) == admitsRetired(sched.NewRSGT(sched.SpecOracle{Spec: sp}), s) {
			rsgtAgree++
		}
		csr := core.IsConflictSerializable(s)
		if csr == admitsRetired(sched.NewSGT(), s) {
			sgtAgree++
		}
		if csr {
			serializable++
		}
	}
	et := metrics.NewTable("Verdict equivalence under aggressive retirement (flush after every commit)",
		"trials", "rsgt = Theorem 1", "sgt = conflict-serializable", "conflict-serializable", "not")
	et.AddRow(trials, rsgtAgree, sgtAgree, serializable, trials-serializable)
	rep.Tables = append(rep.Tables, et)
	rep.AddClaim(rsgtAgree == trials,
		"retired online RSGT agrees with the offline Theorem 1 test on all %d random schedules", trials)
	rep.AddClaim(sgtAgree == trials,
		"retired online SGT agrees with offline conflict serializability on all %d random schedules", trials)
	rep.AddClaim(serializable > 0 && serializable < trials,
		"the sample exercises both admissible and inadmissible schedules")

	rep.AddNote(fmt.Sprintf("retirement-off legs run at %dx smaller sizes: without retirement the graph, its maintained order and the object histories keep every transaction ever run, so memory grows with every committed transaction", onSizes[0]/offSizes[0]))
	rep.AddNote("retained KB is the post-GC heap delta across each soak leg; it is reported as data (GC pacing is host-dependent), the memory claims rest on the deterministic vertex and entry counters")
	return rep, nil
}

// soakRSGT streams n chained transactions through RSGT with a sliding
// window of live instances, emulating the engine's low-water feed, and
// samples graph size along the way. Deterministic apart from timing.
func soakRSGT(n int, retire bool) e20Soak {
	p := sched.NewRSGT(sched.AbsoluteOracle{})
	p.SetRetirement(retire)
	obj := func(i int64) string { return "x" + strconv.FormatInt(i%257, 10) }

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	sample := n / 64
	if sample == 0 {
		sample = 1
	}
	var out e20Soak
	var live []int64
	start := time.Now()
	for i := int64(1); i <= int64(n); i++ {
		tx := core.T(core.TxnID(i), core.R(obj(i-1)), core.W(obj(i)))
		p.Begin(i, tx)
		live = append(live, i)
		for seq := 0; seq < tx.Len(); seq++ {
			p.Request(sched.OpRequest{Instance: i, Program: tx, Seq: seq, Op: tx.Op(seq)})
		}
		if len(live) >= e20Window {
			p.Commit(live[0])
			live = live[1:]
		}
		p.SetLowWater(i - e20Window)
		if i%int64(sample) == 0 {
			st := p.RetireStats()
			if v := st.LiveVertices + st.PendingRetire; v > out.maxLive {
				out.maxLive = v
			}
			if st.ExecEntries > out.maxExec {
				out.maxExec = st.ExecEntries
			}
		}
	}
	for _, id := range live {
		p.Commit(id)
	}
	wall := time.Since(start)
	out.tput = float64(2*n) / wall.Seconds()

	// Read the live graph size before the final flush: with retirement
	// off this is the monotone-growth evidence.
	out.stats = p.RetireStats()
	if st := out.stats; st.LiveVertices+st.PendingRetire > out.maxLive {
		out.maxLive = st.LiveVertices + st.PendingRetire
	}
	if out.stats.ExecEntries > out.maxExec {
		out.maxExec = out.stats.ExecEntries
	}
	p.FlushRetirement()
	if retire {
		out.stats = p.RetireStats()
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		out.retained = after.HeapAlloc - before.HeapAlloc
	}
	runtime.KeepAlive(p)
	return out
}

// randomSpecInstance builds a random transaction set, a random
// relative-atomicity spec over it (random unit cuts), and a random
// complete interleaving — the E10 generator extended with cuts so the
// RSG and the classical serialization graph genuinely diverge.
func randomSpecInstance(rng *rand.Rand) (*core.Spec, *core.Schedule) {
	objects := []string{"x", "y", "z"}
	nTxn := 2 + rng.Intn(3)
	txns := make([]*core.Transaction, nTxn)
	for i := range txns {
		nOps := 1 + rng.Intn(4)
		ops := make([]core.Op, nOps)
		for k := range ops {
			obj := objects[rng.Intn(len(objects))]
			if rng.Intn(2) == 0 {
				ops[k] = core.R(obj)
			} else {
				ops[k] = core.W(obj)
			}
		}
		txns[i] = core.T(core.TxnID(i+1), ops...)
	}
	ts := core.MustTxnSet(txns...)
	sp := core.NewSpec(ts)
	for _, a := range txns {
		for _, b := range txns {
			if a.ID == b.ID {
				continue
			}
			for pos := 0; pos+1 < a.Len(); pos++ {
				if rng.Intn(3) == 0 {
					if err := sp.CutAfter(a.ID, b.ID, pos); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	return sp, randomInterleaving(rng, ts)
}

// admitsRetired replays s through p with retirement enabled and a
// flush after every commit — the most aggressive pruning schedule the
// runtime can produce — and reports whether every op was granted.
func admitsRetired(p sched.Protocol, s *core.Schedule) bool {
	r := p.(sched.Retirer)
	r.SetRetirement(true)
	ts := s.Set()
	for _, tx := range ts.Txns() {
		p.Begin(int64(tx.ID), tx)
	}
	executed := make(map[core.TxnID]int)
	for pos := 0; pos < s.Len(); pos++ {
		op := s.At(pos)
		tx := ts.Txn(op.Txn)
		if p.Request(sched.OpRequest{Instance: int64(op.Txn), Program: tx, Seq: executed[op.Txn], Op: op}) != sched.Grant {
			return false
		}
		executed[op.Txn]++
		if executed[op.Txn] == tx.Len() {
			p.Commit(int64(op.Txn))
			r.FlushRetirement()
		}
	}
	return true
}
