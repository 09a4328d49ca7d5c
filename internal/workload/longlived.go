package workload

import (
	"fmt"
	"math/rand"

	"relser/internal/core"
	"relser/internal/storage"
)

// LongLivedConfig sizes the long-lived transaction scenario of §5 and
// [SGMA87]: a few long scan-and-update transactions sweep many
// objects while a stream of short transactions touches single objects.
type LongLivedConfig struct {
	Objects int
	// LongTxns sweep every object (read then write each).
	LongTxns int
	// ShortTxns touch one random object (read then write).
	ShortTxns int
}

// DefaultLongLivedConfig returns one long sweep over 16 objects with
// 24 short transactions.
func DefaultLongLivedConfig() LongLivedConfig {
	return LongLivedConfig{Objects: 16, LongTxns: 1, ShortTxns: 24}
}

const (
	kindLong  = "long"
	kindShort = "short"
)

// LongLived generates the altruistic-locking scenario.
//
// Relative atomicity: a long transaction exposes unit boundaries after
// every object it finishes (each unit is the r[x] w[x] pair), relative
// to every other transaction — precisely the "different atomic units"
// generalization of early lock release that §5 describes. Short
// transactions are atomic to everyone.
func LongLived(cfg LongLivedConfig, seed int64) (*Workload, error) {
	if cfg.Objects <= 0 {
		return nil, fmt.Errorf("workload: longlived needs objects")
	}
	rng := rand.New(rand.NewSource(seed))
	obj := func(i int) string { return fmt.Sprintf("x_%d", i) }

	initial := make(map[string]storage.Value)
	for i := 0; i < cfg.Objects; i++ {
		initial[obj(i)] = 0
	}

	progs := make(map[core.TxnID]progKind)
	var programs []*core.Transaction
	nextID := core.TxnID(1)

	for l := 0; l < cfg.LongTxns; l++ {
		var ops []core.Op
		for i := 0; i < cfg.Objects; i++ {
			ops = append(ops, core.R(obj(i)), core.W(obj(i)))
		}
		p := core.T(nextID, ops...)
		programs = append(programs, p)
		// One unit per swept object.
		progs[nextID] = progKind{kind: kindLong, split: everyK(p, 2)}
		nextID++
	}
	for s := 0; s < cfg.ShortTxns; s++ {
		i := rng.Intn(cfg.Objects)
		programs = append(programs, core.T(nextID, core.R(obj(i)), core.W(obj(i))))
		progs[nextID] = progKind{kind: kindShort}
		nextID++
	}

	oracle := &kindOracle{
		progs:  progs,
		splits: func(a, _ progKind) bool { return a.kind == kindLong },
	}

	// Every write stores read+1, and every r/w pair is an atomic unit,
	// so each object's final value counts the transactions that updated
	// it.
	updates := make(map[string]int)
	for _, p := range programs {
		for _, o := range p.Ops {
			if o.Kind == core.WriteOp {
				updates[o.Object]++
			}
		}
	}
	invariant := func(snapshot map[string]storage.Value) error {
		for o, n := range updates {
			if got := snapshot[o]; got != storage.Value(n) {
				return fmt.Errorf("object %s = %d, want %d (lost or duplicated update)", o, got, n)
			}
		}
		return nil
	}

	return &Workload{
		Name:      "longlived",
		Programs:  programs,
		Oracle:    oracle,
		Initial:   initial,
		Semantics: incrementSemantics{},
		Invariant: invariant,
	}, nil
}
