package workload

import (
	"fmt"
	"math/rand"

	"relser/internal/core"
	"relser/internal/storage"
)

// CADCAMConfig sizes the collaborative design workload of §1/§5: users
// divided into teams of specialized experts; within a team interleaving
// is permitted at part boundaries, across teams transactions observe
// each other atomically.
type CADCAMConfig struct {
	Teams        int
	PartsPerTeam int
	// Designers is the number of design-update transactions; each
	// updates a few parts of its own team's module.
	Designers      int
	PartsPerUpdate int
	// Integrators read an entire team module (their own team's), used
	// to check module-level consistency.
	Integrators int
}

// DefaultCADCAMConfig returns a contended two-team mix.
func DefaultCADCAMConfig() CADCAMConfig {
	return CADCAMConfig{
		Teams:          2,
		PartsPerTeam:   4,
		Designers:      10,
		PartsPerUpdate: 3,
		Integrators:    2,
	}
}

const (
	kindDesigner   = "designer"
	kindIntegrator = "integrator"
)

// CADCAM generates the design-collaboration scenario.
//
// Relative atomicity: a designer's transaction exposes unit boundaries
// after each part update to *same-team* transactions (each part update
// is r[part] w[part], so units have length 2) and is atomic to other
// teams; integrators are atomic to everyone (they want a consistent
// module snapshot) while designers of other teams may interleave them
// at part boundaries.
func CADCAM(cfg CADCAMConfig, seed int64) (*Workload, error) {
	if cfg.Teams <= 0 || cfg.PartsPerTeam <= 0 {
		return nil, fmt.Errorf("workload: cadcam needs teams and parts")
	}
	if cfg.PartsPerUpdate > cfg.PartsPerTeam {
		cfg.PartsPerUpdate = cfg.PartsPerTeam
	}
	rng := rand.New(rand.NewSource(seed))
	part := func(t, p int) string { return fmt.Sprintf("part_%d_%d", t, p) }

	initial := make(map[string]storage.Value)
	for t := 0; t < cfg.Teams; t++ {
		for p := 0; p < cfg.PartsPerTeam; p++ {
			initial[part(t, p)] = 1
		}
	}

	progs := make(map[core.TxnID]progKind)
	var programs []*core.Transaction
	nextID := core.TxnID(1)

	for d := 0; d < cfg.Designers; d++ {
		team := rng.Intn(cfg.Teams)
		perm := rng.Perm(cfg.PartsPerTeam)[:cfg.PartsPerUpdate]
		var ops []core.Op
		for _, p := range perm {
			ops = append(ops, core.R(part(team, p)), core.W(part(team, p)))
		}
		p := core.T(nextID, ops...)
		programs = append(programs, p)
		// One unit per part update (r+w), exposed to the same team.
		progs[nextID] = progKind{kind: kindDesigner, group: team, split: everyK(p, 2)}
		nextID++
	}
	for i := 0; i < cfg.Integrators; i++ {
		team := rng.Intn(cfg.Teams)
		var ops []core.Op
		for p := 0; p < cfg.PartsPerTeam; p++ {
			ops = append(ops, core.R(part(team, p)))
		}
		p := core.T(nextID, ops...)
		programs = append(programs, p)
		// Exposed to other teams, which don't conflict with it anyway.
		progs[nextID] = progKind{kind: kindIntegrator, group: team, split: everyK(p, cfg.PartsPerTeam)}
		nextID++
	}
	if len(programs) == 0 {
		return nil, fmt.Errorf("workload: cadcam mix is empty")
	}

	oracle := &kindOracle{
		progs: progs,
		splits: func(a, b progKind) bool {
			sameTeam := a.group == b.group
			switch a.kind {
			case kindDesigner:
				return sameTeam // atomic across teams
			case kindIntegrator:
				return !sameTeam // atomic to its own team
			default:
				return false
			}
		},
	}

	// Invariant: every part value equals 1 plus the number of designer
	// updates that committed on it — each update writes read+1 and part
	// updates are atomic units, so increments never get lost.
	// The expected count is computed from the committed programs after
	// the run; here we can only assert positivity, so the workload
	// exposes the stronger check through ExpectedPartValue.
	invariant := func(snapshot map[string]storage.Value) error {
		updates := make(map[string]int)
		for _, p := range programs {
			for _, o := range p.Ops {
				if o.Kind == core.WriteOp {
					updates[o.Object]++
				}
			}
		}
		for obj, n := range updates {
			want := storage.Value(1 + n)
			if got := snapshot[obj]; got != want {
				return fmt.Errorf("part %s = %d, want %d (lost or duplicated update)", obj, got, want)
			}
		}
		return nil
	}

	return &Workload{
		Name:      "cadcam",
		Programs:  programs,
		Oracle:    oracle,
		Initial:   initial,
		Semantics: incrementSemantics{},
		Invariant: invariant,
	}, nil
}

// incrementSemantics writes read(previous op) + 1: programs are
// sequences of r[x] w[x] pairs (and pure reads), so each write stores
// one more than the value read immediately before it.
type incrementSemantics struct{}

// WriteValue implements txn.Semantics.
func (incrementSemantics) WriteValue(prog *core.Transaction, seq int, reads map[int]storage.Value) storage.Value {
	if v, ok := reads[seq-1]; ok {
		return v + 1
	}
	return 1
}
