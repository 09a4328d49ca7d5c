package sched

import (
	"fmt"
	"slices"
	"testing"

	"relser/internal/core"
)

// TestSharedClockSurvivesRebase: an operation that advanced no clock
// entry shares its predecessor's clock, and a rebase filters clocks in
// place, so filtering the first holder leaves a zeroed tail in the
// second's view. After a source leaves the graph and retirement is
// flushed, every clock must read as it would had each operation owned
// a copy, and a request absorbing the shared clock must decide and
// label arcs as it would then.
func TestSharedClockSurvivesRebase(t *testing.T) {
	u := core.T(1, core.W("c"))
	s := core.T(2, core.R("c"), core.W("a"))
	tx := core.T(3, core.R("a"), core.R("b"), core.R("d"))
	v := core.T(4, core.W("b"))
	progs := map[int64]*core.Transaction{1: u, 2: s, 3: tx, 4: v}
	noCuts := OracleFunc(func(_, _ *core.Transaction) []int { return nil })

	shared, ref := NewRSGT(noCuts), NewRSGT(noCuts)
	both := func(f func(p *RSGT) string) {
		t.Helper()
		if got, want := f(shared), f(ref); got != want {
			t.Fatalf("shared clocks: %s\nclock per operation: %s", got, want)
		}
		unshare(ref)
	}
	request := func(id int64, seq int) func(*RSGT) string {
		return func(p *RSGT) string {
			prog := progs[id]
			return fmt.Sprint(p.Request(OpRequest{Instance: id, Program: prog, Seq: seq, Op: prog.Op(seq)}))
		}
	}
	for id := int64(1); id <= 4; id++ {
		both(func(p *RSGT) string { p.Begin(id, progs[id]); return "" })
	}
	for _, r := range [][2]int64{{1, 0}, {2, 0}, {2, 1}, {3, 0}, {3, 1}} {
		both(request(r[0], int(r[1])))
	}
	ops := shared.insts[3].ops
	if len(ops[1].clock) != 2 || &ops[0].clock[0] != &ops[1].clock[0] {
		t.Fatalf("r3[b] advanced nothing over r3[a] but does not share its clock %v", ops[0].clock)
	}

	// w1[c] has no foreign in-arc: its commit evicts it, and the flush
	// rebases the clocks that name it.
	both(func(p *RSGT) string { p.Commit(1); p.FlushRetirement(); return clocks(p) })
	both(request(4, 0))
	both(request(3, 2))
	both(func(p *RSGT) string { return clocks(p) + p.dotSnapshot(nil) })
}

// unshare gives every recorded operation its own copy of its clock.
func unshare(p *RSGT) {
	for _, h := range p.objHist {
		for _, e := range *h {
			e.clock = slices.Clone(e.clock)
		}
	}
	for _, in := range p.insts {
		for _, e := range in.ops {
			e.clock = slices.Clone(e.clock)
		}
	}
}

// clocks renders the resident instances' clocks by instance and seq.
func clocks(p *RSGT) string {
	out := ""
	for _, id := range sortedInstances(p.insts) {
		for _, e := range p.insts[id].ops {
			out += fmt.Sprintf("%d.%d:", id, e.seq)
			for _, d := range e.clock {
				if d.src == nil {
					out += " <nil>"
					continue
				}
				out += fmt.Sprintf(" %d@%d", d.src.id, d.seq)
			}
			out += "\n"
		}
	}
	return out
}
