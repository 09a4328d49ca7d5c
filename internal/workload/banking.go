package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"relser/internal/core"
	"relser/internal/storage"
	"relser/internal/txn"
)

// BankingConfig sizes the banking workload of §1: customers grouped
// into families sharing accounts, per-family credit audits and full
// bank audits.
type BankingConfig struct {
	Families          int
	AccountsPerFamily int
	// Customers is the number of transfer transactions (each within
	// one family).
	Customers int
	// CreditAudits read the accounts of a contiguous group of
	// FamiliesPerAudit families.
	CreditAudits     int
	FamiliesPerAudit int
	// BankAudits read every account and are atomic with respect to
	// everything, per the paper.
	BankAudits int
	// CrossingAudits makes every other credit audit scan its family
	// span in descending order. Two audits crossing the same families
	// in opposite orders produce transaction-level conflict cycles
	// through interleaved customer writes — schedules that are not
	// conflict serializable yet are relatively serializable thanks to
	// the audits' family-border unit boundaries. This is the knob that
	// separates RSGT from SGT in experiment E8.
	CrossingAudits bool
	// InitialBalance per account.
	InitialBalance int64
}

// DefaultBankingConfig returns a small but contended mix.
func DefaultBankingConfig() BankingConfig {
	return BankingConfig{
		Families:          4,
		AccountsPerFamily: 3,
		Customers:         12,
		CreditAudits:      4,
		FamiliesPerAudit:  2,
		BankAudits:        1,
		InitialBalance:    100,
	}
}

const (
	kindCustomer    = "customer"
	kindCreditAudit = "credit-audit"
	kindBankAudit   = "bank-audit"
)

// bankingSemantics implements transfers: a customer program reads two
// accounts then writes them, moving a deterministic amount.
type bankingSemantics struct {
	amounts map[core.TxnID]int64
}

// WriteValue implements txn.Semantics.
func (s *bankingSemantics) WriteValue(prog *core.Transaction, seq int, reads map[int]storage.Value) storage.Value {
	amt, ok := s.amounts[prog.ID]
	if !ok {
		return 0 // audits never write
	}
	// Customer program shape: r[src] r[dst] w[src] w[dst].
	switch seq {
	case 2:
		return reads[0] - storage.Value(amt)
	case 3:
		return reads[1] + storage.Value(amt)
	default:
		panic(fmt.Sprintf("workload: unexpected write seq %d in customer program", seq))
	}
}

// Banking generates the paper's banking scenario.
//
// Relative atomicity (the paper's prescription, §1):
//
//   - the bank audit is atomic with respect to every transaction and
//     vice versa (absolute defaults);
//   - a credit audit exposes unit boundaries at family borders: while
//     it audits family f, customers of other families may interleave;
//     customer transactions remain atomic units to the audit, so each
//     family snapshot is transfer-consistent;
//   - customer transfers of different families are mutually fully
//     interleavable (they share no accounts). The paper also permits
//     arbitrary interleaving of same-family customers as a user-level
//     semantic choice; this generator keeps same-family transfers
//     mutually atomic so the balance-conservation invariant remains
//     machine-checkable (documented substitution, DESIGN.md §3).
func Banking(cfg BankingConfig, seed int64) (*Workload, error) {
	if cfg.Families <= 0 || cfg.AccountsPerFamily <= 0 {
		return nil, fmt.Errorf("workload: banking needs at least one family and account")
	}
	if cfg.AccountsPerFamily < 2 && cfg.Customers > 0 {
		return nil, fmt.Errorf("workload: transfers need two accounts per family")
	}
	if cfg.FamiliesPerAudit <= 0 {
		cfg.FamiliesPerAudit = 1
	}
	rng := rand.New(rand.NewSource(seed))
	acct := func(f, a int) string { return fmt.Sprintf("acct_%d_%d", f, a) }

	initial := make(map[string]storage.Value)
	for f := 0; f < cfg.Families; f++ {
		for a := 0; a < cfg.AccountsPerFamily; a++ {
			initial[acct(f, a)] = storage.Value(cfg.InitialBalance)
		}
	}

	progs := make(map[core.TxnID]progKind)
	amounts := make(map[core.TxnID]int64)
	var programs []*core.Transaction
	nextID := core.TxnID(1)

	for c := 0; c < cfg.Customers; c++ {
		f := rng.Intn(cfg.Families)
		src := rng.Intn(cfg.AccountsPerFamily)
		dst := rng.Intn(cfg.AccountsPerFamily - 1)
		if dst >= src {
			dst++
		}
		p := core.T(nextID,
			core.R(acct(f, src)), core.R(acct(f, dst)),
			core.W(acct(f, src)), core.W(acct(f, dst)))
		// A transfer is fully breakable to customers of other families.
		progs[nextID] = progKind{kind: kindCustomer, group: f, split: everyK(p, 1)}
		amounts[nextID] = int64(1 + rng.Intn(10))
		programs = append(programs, p)
		nextID++
	}
	for a := 0; a < cfg.CreditAudits; a++ {
		first := rng.Intn(cfg.Families)
		last := first + cfg.FamiliesPerAudit - 1
		if last >= cfg.Families {
			last = cfg.Families - 1
		}
		families := make([]int, 0, last-first+1)
		for f := first; f <= last; f++ {
			families = append(families, f)
		}
		if cfg.CrossingAudits && a%2 == 1 {
			for i, j := 0, len(families)-1; i < j; i, j = i+1, j-1 {
				families[i], families[j] = families[j], families[i]
			}
		}
		var ops []core.Op
		for _, f := range families {
			for acc := 0; acc < cfg.AccountsPerFamily; acc++ {
				ops = append(ops, core.R(acct(f, acc)))
			}
		}
		p := core.T(nextID, ops...)
		// Unit boundaries at family borders.
		progs[nextID] = progKind{kind: kindCreditAudit, split: everyK(p, cfg.AccountsPerFamily)}
		programs = append(programs, p)
		nextID++
	}
	for b := 0; b < cfg.BankAudits; b++ {
		var ops []core.Op
		for f := 0; f < cfg.Families; f++ {
			for acc := 0; acc < cfg.AccountsPerFamily; acc++ {
				ops = append(ops, core.R(acct(f, acc)))
			}
		}
		p := core.T(nextID, ops...)
		progs[nextID] = progKind{kind: kindBankAudit}
		programs = append(programs, p)
		nextID++
	}
	if len(programs) == 0 {
		return nil, fmt.Errorf("workload: banking mix is empty")
	}

	oracle := &kindOracle{
		progs: progs,
		splits: func(a, b progKind) bool {
			switch {
			case a.kind == kindBankAudit || b.kind == kindBankAudit:
				return false // absolute both ways, per the paper
			case a.kind == kindCreditAudit:
				// Observers may interleave between per-family segments.
				return true
			case a.kind == kindCustomer && b.kind == kindCustomer:
				// Disjoint accounts interleave freely; the same family
				// is kept atomic (see doc comment).
				return a.group != b.group
			default:
				return false // transfers stay atomic to auditors
			}
		},
	}

	total := storage.Value(int64(cfg.Families*cfg.AccountsPerFamily) * cfg.InitialBalance)
	invariant := func(snapshot map[string]storage.Value) error {
		var sum storage.Value
		var names []string
		for name, v := range snapshot {
			if strings.HasPrefix(name, "acct_") {
				sum += v
				names = append(names, name)
			}
		}
		if sum != total {
			sort.Strings(names)
			return fmt.Errorf("balance conservation broken: total %d, want %d (%d accounts)", sum, total, len(names))
		}
		return nil
	}

	return &Workload{
		Name:      "banking",
		Programs:  programs,
		Oracle:    oracle,
		Initial:   initial,
		Semantics: &bankingSemantics{amounts: amounts},
		Invariant: invariant,
	}, nil
}

var _ txn.Semantics = (*bankingSemantics)(nil)
