package workload

import (
	"fmt"
	"slices"
	"testing"

	"relser/internal/core"
	"relser/internal/sched"
)

// The reference oracles below compute each answer per call from the
// program, the way the generators' oracles did before they answered
// from tables built at generation. Program kinds follow from the
// generators' ID order and groups from object names.

func refEveryOp(t *core.Transaction) []int {
	var cuts []int
	for p := 1; p < t.Len(); p++ {
		cuts = append(cuts, p)
	}
	return cuts
}

func refEveryK(t *core.Transaction, k int) []int {
	var cuts []int
	for p := k; p < t.Len(); p += k {
		cuts = append(cuts, p)
	}
	return cuts
}

// group parses the first index of a "<prefix>_<group>_<n>" object name.
func group(t *core.Transaction, prefix string) int {
	var g, n int
	if _, err := fmt.Sscanf(t.Op(0).Object, prefix+"_%d_%d", &g, &n); err != nil {
		panic(err)
	}
	return g
}

func refSynthetic(g int) func(a, b *core.Transaction) []int {
	return func(a, _ *core.Transaction) []int {
		if g >= a.Len() {
			return nil
		}
		return refEveryK(a, g)
	}
}

func refBanking(cfg BankingConfig) func(a, b *core.Transaction) []int {
	kind := func(t *core.Transaction) string {
		switch id := int(t.ID); {
		case id <= cfg.Customers:
			return kindCustomer
		case id <= cfg.Customers+cfg.CreditAudits:
			return kindCreditAudit
		default:
			return kindBankAudit
		}
	}
	return func(a, b *core.Transaction) []int {
		ka, kb := kind(a), kind(b)
		switch {
		case ka == kindBankAudit || kb == kindBankAudit:
			return nil
		case ka == kindCreditAudit:
			var cuts []int
			for f := 1; f < a.Len()/cfg.AccountsPerFamily; f++ {
				cuts = append(cuts, f*cfg.AccountsPerFamily)
			}
			return cuts
		case ka == kindCustomer && kb == kindCustomer:
			if group(a, "acct") != group(b, "acct") {
				return refEveryOp(a)
			}
			return nil
		default:
			return nil
		}
	}
}

func refCADCAM(cfg CADCAMConfig) func(a, b *core.Transaction) []int {
	return func(a, b *core.Transaction) []int {
		sameTeam := group(a, "part") == group(b, "part")
		designer := int(a.ID) <= cfg.Designers
		switch {
		case designer && sameTeam:
			return refEveryK(a, 2)
		case !designer && !sameTeam:
			return refEveryK(a, cfg.PartsPerTeam)
		default:
			return nil
		}
	}
}

func refLongLived(cfg LongLivedConfig) func(a, b *core.Transaction) []int {
	return func(a, _ *core.Transaction) []int {
		if int(a.ID) <= cfg.LongTxns {
			return refEveryK(a, 2)
		}
		return nil
	}
}

// refSpecOracle rebuilds the pair's boundaries from the spec's units.
func refSpecOracle(sp *core.Spec) func(a, b *core.Transaction) []int {
	return func(a, b *core.Transaction) []int {
		var cuts []int
		for k := 0; k < sp.NumUnits(a.ID, b.ID)-1; k++ {
			_, end := sp.Unit(a.ID, b.ID, k)
			cuts = append(cuts, end+1)
		}
		return cuts
	}
}

// TestShippedOraclesAnswerWithoutAllocating holds every shipped oracle
// to the sched.AtomicityOracle contract over every ordered pair of a
// workload's programs: no answer allocates, and each equals the
// reference computed per call. SpecOracle is checked over the spec each
// workload's oracle describes.
func TestShippedOraclesAnswerWithoutAllocating(t *testing.T) {
	bank := BankingConfig{
		Families: 16, AccountsPerFamily: 3, Customers: 96,
		CreditAudits: 12, FamiliesPerAudit: 2, BankAudits: 1,
		CrossingAudits: true, InitialBalance: 100,
	}
	cad := CADCAMConfig{Teams: 3, PartsPerTeam: 4, Designers: 24, PartsPerUpdate: 3, Integrators: 6}
	long := LongLivedConfig{Objects: 16, LongTxns: 2, ShortTxns: 48}
	mix := func(g int) SyntheticConfig {
		return SyntheticConfig{Objects: 512, Programs: 64, OpsPerTxn: 16, WriteRatio: 0.25, Granularity: g}
	}
	cases := []struct {
		name string
		gen  func(seed int64) (*Workload, error)
		ref  func(a, b *core.Transaction) []int
	}{
		{"synthetic-g2", func(s int64) (*Workload, error) { return Synthetic(mix(2), s) }, refSynthetic(2)},
		{"synthetic-g4", func(s int64) (*Workload, error) { return Synthetic(mix(4), s) }, refSynthetic(4)},
		{"banking", func(s int64) (*Workload, error) { return Banking(bank, s) }, refBanking(bank)},
		{"cadcam", func(s int64) (*Workload, error) { return CADCAM(cad, s) }, refCADCAM(cad)},
		{"longlived", func(s int64) (*Workload, error) { return LongLived(long, s) }, refLongLived(long)},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 5; seed++ {
			w, err := c.gen(seed)
			if err != nil {
				t.Fatal(err)
			}
			ts, err := core.NewTxnSet(w.Programs...)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := core.SpecFromCuts(ts, w.Oracle.Cuts)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []struct {
				name   string
				oracle sched.AtomicityOracle
				ref    func(a, b *core.Transaction) []int
			}{
				{"oracle", w.Oracle, c.ref},
				{"spec", sched.SpecOracle{Spec: sp}, refSpecOracle(sp)},
			} {
				cell := fmt.Sprintf("%s/seed%d/%s", c.name, seed, o.name)
				splits := 0
				for _, a := range w.Programs {
					for _, b := range w.Programs {
						got, want := o.oracle.Cuts(a, b), o.ref(a, b)
						if !slices.Equal(got, want) {
							t.Fatalf("%s: Cuts(T%d, T%d) = %v, want %v", cell, a.ID, b.ID, got, want)
						}
						if len(got) > 0 {
							splits++
						}
					}
				}
				if splits == 0 {
					t.Fatalf("%s: no pair is split, so the check is vacuous", cell)
				}
				allocs := testing.AllocsPerRun(1, func() {
					for _, a := range w.Programs {
						for _, b := range w.Programs {
							o.oracle.Cuts(a, b)
						}
					}
				})
				if allocs != 0 {
					t.Errorf("%s: %v allocations over %d ordered pairs", cell, allocs, len(w.Programs)*len(w.Programs))
				}
			}
		}
	}
}
