package trace

import (
	"fmt"
	"sort"
	"strings"

	"relser/internal/core"
)

// VerifyCycles replays a trace against the paper's offline theory: for
// every cycle-reject event it reconstructs the observed schedule prefix
// (granted operations of live instances, in grant order, plus the
// rejected operation), completes it with the unexecuted program
// suffixes, builds the offline core.RSG of that schedule under the
// specification cuts describes (the unit boundaries of program a
// relative to observer b, under core.UnitBounds's convention), and
// checks that
//
//  1. the event's arcs form a closed cycle,
//  2. every online arc exists offline with at least the kinds the
//     event claims (I/D/F/B letter by letter), and
//  3. the offline graph is indeed cyclic (Theorem 1: the completed
//     schedule is not relatively serializable).
//
// Appending suffixes is sound: depends-on among prefix operations is
// unaffected by operations scheduled after them, and F/B arc targets
// are determined by the specification and programs alone, so every
// online arc must reappear offline.
//
// It returns the number of cycle-reject events checked and the first
// verification failure, if any. A known caveat is documented in
// EXPERIMENTS.md: RSGT conservatively retains dependencies that flowed
// through aborted instances, so in traces with aborts an online arc may
// lack an offline counterpart once the aborted instance is excluded
// from the replay; such events fail verification rather than being
// skipped.
func VerifyCycles(events []Event, cuts func(a, b *core.Transaction) []int) (int, error) {
	progs := make(map[int64]*core.Transaction)
	aborted := make(map[int64]bool)
	var grants []Event
	checked := 0
	for i, ev := range events {
		switch ev.Kind {
		case KindBegin:
			ops, err := core.ParseOps(ev.Program)
			if err != nil {
				return checked, fmt.Errorf("trace: event %d: begin of instance %d has unparseable program %q: %v", i, ev.Instance, ev.Program, err)
			}
			progs[ev.Instance] = core.T(core.TxnID(ev.Txn), ops...)
		case KindTxnAbort:
			aborted[ev.Instance] = true
		case KindGrant:
			grants = append(grants, ev)
		case KindCycleReject:
			if err := verifyOne(ev, progs, aborted, grants, cuts); err != nil {
				return checked, fmt.Errorf("trace: event %d: %v", i, err)
			}
			checked++
		}
	}
	return checked, nil
}

func verifyOne(ev Event, progs map[int64]*core.Transaction, aborted map[int64]bool, grants []Event, cuts func(a, b *core.Transaction) []int) error {
	cyc := ev.Cycle
	if cyc == nil || len(cyc.Arcs) == 0 {
		return fmt.Errorf("cycle-reject for %s carries no cycle", ev.Op)
	}
	for _, a := range cyc.Arcs {
		if a.From < 0 || a.From >= len(cyc.Nodes) || a.To < 0 || a.To >= len(cyc.Nodes) {
			return fmt.Errorf("cycle arc %d->%d references nodes outside [0,%d)", a.From, a.To, len(cyc.Nodes))
		}
	}
	for k, a := range cyc.Arcs {
		next := cyc.Arcs[(k+1)%len(cyc.Arcs)]
		if a.To != next.From {
			return fmt.Errorf("cycle is not closed: arc %d ends at node %d, arc %d starts at node %d", k, a.To, k+1, next.From)
		}
	}

	// Live instances to replay: anything with granted work, plus the
	// requester and every instance the cycle names.
	include := make(map[int64]bool)
	for _, g := range grants {
		if !aborted[g.Instance] {
			include[g.Instance] = true
		}
	}
	include[ev.Instance] = true
	for _, n := range cyc.Nodes {
		include[n.Instance] = true
	}
	byTxn := make(map[core.TxnID]int64)
	var txns []*core.Transaction
	for inst := range include {
		p, ok := progs[inst]
		if !ok {
			return fmt.Errorf("instance %d appears in the cycle but has no begin event", inst)
		}
		if aborted[inst] && inst != ev.Instance {
			return fmt.Errorf("cycle names aborted instance %d", inst)
		}
		if prev, dup := byTxn[p.ID]; dup {
			return fmt.Errorf("instances %d and %d both run T%d; replay is ambiguous", prev, inst, p.ID)
		}
		byTxn[p.ID] = inst
		txns = append(txns, p)
	}
	ts, err := core.NewTxnSet(txns...)
	if err != nil {
		return fmt.Errorf("rebuilding transaction set: %v", err)
	}

	// Observed prefix: grants in order, then the rejected operation.
	done := make(map[int64]int)
	var ops []core.Op
	for _, g := range grants {
		if !include[g.Instance] {
			continue
		}
		p := progs[g.Instance]
		if g.Seq != done[g.Instance] {
			return fmt.Errorf("instance %d grants out of order: got seq %d, expected %d", g.Instance, g.Seq, done[g.Instance])
		}
		ops = append(ops, p.Op(g.Seq))
		done[g.Instance]++
	}
	reqProg := progs[ev.Instance]
	if ev.Seq != done[ev.Instance] {
		return fmt.Errorf("rejected op seq %d does not follow instance %d's %d grants", ev.Seq, ev.Instance, done[ev.Instance])
	}
	rejected := reqProg.Op(ev.Seq)
	ops = append(ops, rejected)
	done[ev.Instance]++
	// Unexecuted suffixes, program by program in instance order.
	insts := make([]int64, 0, len(include))
	for inst := range include {
		insts = append(insts, inst)
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	for _, inst := range insts {
		p := progs[inst]
		for seq := done[inst]; seq < p.Len(); seq++ {
			ops = append(ops, p.Op(seq))
		}
	}
	s, err := core.NewSchedule(ts, ops)
	if err != nil {
		return fmt.Errorf("rebuilding schedule: %v", err)
	}

	sp, err := core.SpecFromCuts(ts, cuts)
	if err != nil {
		return fmt.Errorf("replaying oracle cuts: %v", err)
	}

	rsg := core.BuildRSG(s, sp)
	nodeOp := func(n CycleNode) (core.Op, error) {
		inst, ok := byTxn[core.TxnID(n.Txn)]
		if !ok || progs[inst] == nil {
			return core.Op{}, fmt.Errorf("cycle node T%d.%d has no replayed program", n.Txn, n.Seq)
		}
		p := progs[inst]
		if n.Seq < 0 || n.Seq >= p.Len() {
			return core.Op{}, fmt.Errorf("cycle node T%d.%d out of range (T%d has %d ops)", n.Txn, n.Seq, n.Txn, p.Len())
		}
		return p.Op(n.Seq), nil
	}
	for _, a := range cyc.Arcs {
		u, err := nodeOp(cyc.Nodes[a.From])
		if err != nil {
			return err
		}
		v, err := nodeOp(cyc.Nodes[a.To])
		if err != nil {
			return err
		}
		offline := rsg.ArcKinds(u, v)
		for _, letter := range strings.Split(a.Kind, ",") {
			var bit core.ArcKind
			switch letter {
			case "I":
				bit = core.IArc
			case "D":
				bit = core.DArc
			case "F":
				bit = core.FArc
			case "B":
				bit = core.BArc
			default:
				return fmt.Errorf("cycle arc %v -> %v has unknown kind %q", u, v, letter)
			}
			if offline&bit == 0 {
				return fmt.Errorf("online arc %v -%s-> %v not present in offline RSG (offline kinds: %s)", u, letter, v, offline)
			}
		}
	}
	if rsg.Acyclic() {
		return fmt.Errorf("offline RSG of the completed prefix is acyclic, but the online protocol rejected %s", rejected)
	}
	return nil
}
