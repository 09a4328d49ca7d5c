// Package paperfig reconstructs, as executable fixtures, every worked
// example of Agrawal, Bruno, El Abbadi and Krishnaswamy, "Relative
// Serializability: An Approach for Relaxing the Atomicity of
// Transactions" (PODS 1994): the transaction sets, relative atomicity
// specifications and named schedules of Figures 1-4 and the in-text
// example schedules of §2 and §3.
//
// The experiment harness (EXPERIMENTS.md E1-E4) and the figure tests
// are built on these fixtures, so the package documents precisely which
// claim of the paper each schedule witnesses.
package paperfig

import (
	"fmt"
	"os"

	"relser/internal/core"
)

func mustSpec(err error) {
	if err != nil {
		panic(fmt.Sprintf("paperfig: invalid fixture specification: %v", err))
	}
}

// Figure1 returns the running example of §2: three transactions with
// the relative atomicity specifications of Figure 1, and the named
// schedules
//
//	Sra — §2's relatively atomic (hence correct) but non-serial schedule;
//	Srs — §2's relatively serial schedule that is not relatively atomic;
//	S2  — §2's schedule that is not relatively serial (w1[x] interleaves
//	      AtomicUnit(2, T2, T1) and r2[x] depends on w1[x]) but is
//	      relatively serializable, being conflict equivalent to Srs.
func Figure1() *core.Instance {
	t1 := core.T(1, core.R("x"), core.W("x"), core.W("z"), core.R("y"))
	t2 := core.T(2, core.R("y"), core.W("y"), core.R("x"))
	t3 := core.T(3, core.W("x"), core.W("y"), core.W("z"))
	ts := core.MustTxnSet(t1, t2, t3)
	sp := core.NewSpec(ts)
	mustSpec(sp.SetUnits(1, 2, 2, 2))    // [r1x w1x] [w1z r1y]
	mustSpec(sp.SetUnits(1, 3, 2, 1, 1)) // [r1x w1x] [w1z] [r1y]
	mustSpec(sp.SetUnits(2, 1, 1, 2))    // [r2y] [w2y r2x]
	mustSpec(sp.SetUnits(2, 3, 2, 1))    // [r2y w2y] [r2x]
	mustSpec(sp.SetUnits(3, 1, 2, 1))    // [w3x w3y] [w3z]
	mustSpec(sp.SetUnits(3, 2, 2, 1))    // [w3x w3y] [w3z]
	inst := &core.Instance{Set: ts, Spec: sp, Schedules: map[string]*core.Schedule{}}
	add(inst, "Sra", "r2[y] r1[x] w1[x] w2[y] r2[x] w1[z] w3[x] w3[y] r1[y] w3[z]")
	add(inst, "Srs", "r1[x] r2[y] w1[x] w2[y] w3[x] w1[z] w3[y] r2[x] r1[y] w3[z]")
	add(inst, "S2", "r1[x] r2[y] w2[y] w1[x] w3[x] r2[x] w1[z] w3[y] r1[y] w3[z]")
	return inst
}

// Figure2 returns the example showing that direct conflicts are not
// sufficient for correctness: in schedule S1, w2[y] conflicts with
// neither w1[x] nor r1[z], yet r1[z] is affected by w2[y] through
// T3, so S1 must not count as relatively serial. (S1 is nonetheless
// relatively serializable — it is conflict equivalent to the serial
// schedule T2 T3 T1 — the figure's point concerns Definition 2 only.)
func Figure2() *core.Instance {
	t1 := core.T(1, core.W("x"), core.R("z"))
	t2 := core.T(2, core.W("y"))
	t3 := core.T(3, core.R("y"), core.W("z"))
	ts := core.MustTxnSet(t1, t2, t3)
	sp := core.NewSpec(ts)
	// Atomicity(T1, T2) = [w1x r1z]: absolute, the default.
	mustSpec(sp.SetUnits(1, 3, 1, 1)) // [w1x] [r1z]
	mustSpec(sp.SetUnits(3, 1, 1, 1)) // [r3y] [w3z]
	mustSpec(sp.SetUnits(3, 2, 1, 1)) // [r3y] [w3z]
	inst := &core.Instance{Set: ts, Spec: sp, Schedules: map[string]*core.Schedule{}}
	add(inst, "S1", "w1[x] w2[y] r3[y] w3[z] r1[z]")
	return inst
}

// Figure3 returns §3's relative serialization graph example: schedule
// S2 = w1[x] r2[x] r3[z] w2[y] r3[y] r1[z] whose RSG carries exactly
// the twelve I/D/F/B-labelled arcs drawn in the figure, including the
// F-arc r1[z] -> r2[x] and the B-arc w2[y] -> r3[z] called out in the
// text.
func Figure3() *core.Instance {
	t1 := core.T(1, core.W("x"), core.R("z"))
	t2 := core.T(2, core.R("x"), core.W("y"))
	t3 := core.T(3, core.R("z"), core.R("y"))
	ts := core.MustTxnSet(t1, t2, t3)
	sp := core.NewSpec(ts)
	mustSpec(sp.SetUnits(1, 3, 1, 1)) // [w1x] [r1z]
	// Atomicity(T1, T2) = [w1x r1z]: absolute, the default.
	mustSpec(sp.SetUnits(2, 3, 1, 1)) // [r2x] [w2y]
	mustSpec(sp.SetUnits(2, 1, 1, 1)) // [r2x] [w2y]
	mustSpec(sp.SetUnits(3, 1, 1, 1)) // [r3z] [r3y]
	// Atomicity(T3, T2) = [r3z r3y]: absolute, the default.
	inst := &core.Instance{Set: ts, Spec: sp, Schedules: map[string]*core.Schedule{}}
	add(inst, "S2", "w1[x] r2[x] r3[z] w2[y] r3[y] r1[z]")
	return inst
}

// Figure4 returns §4's separating example: schedule S is relatively
// serial but not relatively consistent — no conflict-equivalent
// relatively atomic schedule exists, because the operations of T1
// cannot be moved out of T3's atomic unit (as seen by T1) while T4 and
// T2 refuse T1 inside their own units. It witnesses the proper
// containment of Farrag-Özsu's relatively consistent class in the
// paper's relatively serializable class (Figure 5).
func Figure4() *core.Instance {
	t1 := core.T(1, core.W("x"), core.W("y"))
	t2 := core.T(2, core.W("z"), core.W("y"))
	t3 := core.T(3, core.W("t"), core.W("z"))
	t4 := core.T(4, core.W("x"), core.W("t"))
	ts := core.MustTxnSet(t1, t2, t3, t4)
	sp := core.NewSpec(ts)
	// T1 is absolute with respect to everyone (defaults).
	// T2: single unit relative to T1 and T3 (defaults); split for T4.
	mustSpec(sp.SetUnits(2, 4, 1, 1)) // [w2z] [w2y]
	// T3: single unit relative to T1 (default); split for T2 and T4.
	mustSpec(sp.SetUnits(3, 2, 1, 1)) // [w3t] [w3z]
	mustSpec(sp.SetUnits(3, 4, 1, 1)) // [w3t] [w3z]
	// T4: single unit relative to T1 (default); split for T2 and T3.
	mustSpec(sp.SetUnits(4, 2, 1, 1)) // [w4x] [w4t]
	mustSpec(sp.SetUnits(4, 3, 1, 1)) // [w4x] [w4t]
	inst := &core.Instance{Set: ts, Spec: sp, Schedules: map[string]*core.Schedule{}}
	add(inst, "S", "w4[x] w3[t] w4[t] w1[x] w1[y] w2[z] w2[y] w3[z]")
	return inst
}

// All returns the four figure instances keyed "fig1".."fig4", in order.
func All() []*NamedInstance {
	return []*NamedInstance{
		{Name: "fig1", Title: "Figure 1: relative atomicity specifications (§2 running example)", Instance: Figure1()},
		{Name: "fig2", Title: "Figure 2: direct conflicts are not sufficient for correctness", Instance: Figure2()},
		{Name: "fig3", Title: "Figure 3: a relative serialization graph", Instance: Figure3()},
		{Name: "fig4", Title: "Figure 4: relatively serial but not relatively consistent", Instance: Figure4()},
	}
}

// LoadInstance is the CLIs' instance source: figure fig (1-4) when fig
// is non-zero, else the instance file at path, else standard input.
func LoadInstance(path string, fig int) (*core.Instance, error) {
	if fig != 0 {
		all := All()
		if fig < 1 || fig > len(all) {
			return nil, fmt.Errorf("figure %d out of range 1-%d", fig, len(all))
		}
		return all[fig-1].Instance, nil
	}
	in := os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	return core.ParseInstance(in)
}

// NamedInstance pairs a figure instance with its identifier and title.
type NamedInstance struct {
	Name     string
	Title    string
	Instance *core.Instance
}

func add(inst *core.Instance, name, text string) {
	s, err := core.ParseSchedule(inst.Set, text)
	if err != nil {
		panic(fmt.Sprintf("paperfig: schedule %s: %v", name, err))
	}
	inst.Schedules[name] = s
	inst.Names = append(inst.Names, name)
}
