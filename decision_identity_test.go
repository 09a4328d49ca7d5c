package relser_test

// Decision identity across the graph reductions of THEORY.md §4. RSGT
// once inserted a D/F/B triple per executed operation a request
// transitively depends on; it now inserts only the F- and B-arc of each
// clock entry the request advances over the requester's previous
// operation (G″, the staircase pairs). The reduced graph has the same
// vertex reachability, so every decision must be exactly what the
// per-operation construction produced. The golden values below were
// captured from that construction (commit 47c3841) with this same test
// body, and re-pinned once for G″ in FastPathHits/FastPathMisses only:
// with fewer arcs the vector clocks suspect fewer requests, so hits
// rise and misses fall by the same amount in each cell, while every
// result line, schedule digest and other counter stayed as captured.

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"testing"

	"relser/internal/core"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/workload"
)

type identityCell struct {
	name     string
	protocol string
	build    func(seed int64) (*workload.Workload, error)
}

func identityMix(granularity int) func(int64) (*workload.Workload, error) {
	return func(seed int64) (*workload.Workload, error) {
		return workload.Synthetic(workload.SyntheticConfig{
			Objects: 128, Programs: 96, OpsPerTxn: 16, WriteRatio: 0.25, Granularity: granularity,
		}, seed)
	}
}

func identityBank(seed int64) (*workload.Workload, error) {
	return workload.Banking(workload.BankingConfig{
		Families: 16, AccountsPerFamily: 3, Customers: 96,
		CreditAudits: 12, FamiliesPerAudit: 2, BankAudits: 1,
		CrossingAudits: true, InitialBalance: 100,
	}, seed)
}

// identityChain is the ladder's chain-soak shape at 400 programs:
// program i reads x(i-1) and writes x(i) over 257 objects, every
// transaction absolute. The programs do not depend on the seed.
func identityChain(int64) (*workload.Workload, error) {
	obj := func(i int) string { return "x" + strconv.Itoa(i%257) }
	w := &workload.Workload{Name: "chain", Oracle: sched.AbsoluteOracle{}, Initial: map[string]storage.Value{}}
	for i := 1; i <= 400; i++ {
		w.Programs = append(w.Programs, core.T(core.TxnID(i), core.R(obj(i-1)), core.W(obj(i))))
	}
	for i := 0; i < 257; i++ {
		w.Initial[obj(i)] = 0
	}
	return w, nil
}

var identityCells = []identityCell{
	{"mix/rsgt-g1", "rsgt", identityMix(1)},
	{"mix/rsgt-g4", "rsgt", identityMix(4)},
	{"mix/ral-g4", "ral", identityMix(4)},
	{"bank/rsgt", "rsgt", identityBank},
	{"bank/ral", "ral", identityBank},
	{"mix/altruistic-g4", "altruistic", identityMix(4)},
	{"bank/altruistic", "altruistic", identityBank},
	{"mix/sgt-g4", "sgt", identityMix(4)},
	{"mix/s2pl-g4", "s2pl", identityMix(4)},
	{"mix/to-g4", "to", identityMix(4)},
	{"mix/nocc-g4", "nocc", identityMix(4)},
	{"bank/sgt", "sgt", identityBank},
	{"bank/s2pl", "s2pl", identityBank},
	{"bank/to", "to", identityBank},
	{"mix/rsgt-g0", "rsgt", identityMix(0)},
	{"chain/rsgt", "rsgt", identityChain},
}

// identityGolden is one run's outcome: the result line, an FNV-1a
// digest of the committed schedule, and the certification-path
// counters.
type identityGolden struct {
	result   string
	schedule uint64
	retire   sched.RetireStats
}

func runIdentityCell(t *testing.T, c identityCell, seed int64) identityGolden {
	t.Helper()
	w, err := c.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sched.NewProtocol(c.protocol, w.Oracle)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := w.RunWith(p, workload.RunOptions{Seed: seed, MPL: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := res.CommittedSchedule()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write([]byte(s.String()))
	return identityGolden{res.String(), h.Sum64(), res.Retire}
}

func TestDecisionsIdenticalToPerOperationArcs(t *testing.T) {
	for _, c := range identityCells {
		for seed := int64(1); seed <= 5; seed++ {
			key := fmt.Sprintf("%s/seed%d", c.name, seed)
			t.Run(key, func(t *testing.T) {
				got := runIdentityCell(t, c, seed)
				want, ok := identityGoldens[key]
				if !ok {
					t.Fatalf("no golden; got:\n%q: {%q, %#x, %#v},", key, got.result, got.schedule, got.retire)
				}
				if got.result != want.result || got.schedule != want.schedule {
					t.Errorf("decisions changed:\n got %s (schedule %#x)\nwant %s (schedule %#x)", got.result, got.schedule, want.result, want.schedule)
				}
				if got.retire != want.retire {
					t.Errorf("certification path changed:\n got %+v\nwant %+v", got.retire, want.retire)
				}
			})
		}
	}
}

// TestAbsoluteRSGTGoldensAreSGTs: the dense mix's programs do not
// depend on the granularity, and under an absolute spec RSGT is SGT
// (Lemma 1), so each mix/rsgt-g0 golden must be the mix/sgt-g4 golden
// of the same seed but for the protocol's name.
func TestAbsoluteRSGTGoldensAreSGTs(t *testing.T) {
	for seed := 1; seed <= 5; seed++ {
		rsgt := identityGoldens[fmt.Sprintf("mix/rsgt-g0/seed%d", seed)]
		sgt := identityGoldens[fmt.Sprintf("mix/sgt-g4/seed%d", seed)]
		rsgt.result = strings.TrimPrefix(rsgt.result, "rsgt")
		sgt.result = strings.TrimPrefix(sgt.result, "sgt")
		if rsgt != sgt {
			t.Errorf("seed %d: rsgt-g0 golden %+v, sgt-g4 golden %+v", seed, rsgt, sgt)
		}
	}
}

// identityGoldens: captured from commit 47c3841 (per-operation D/F/B
// arcs and closure-bitset dependency index); fast-path split re-pinned
// for staircase F/B arcs.
var identityGoldens = map[string]identityGolden{
	"mix/rsgt-g1/seed1": {"rsgt: committed=96 aborts=221 restarts=221 blocks=0 ticks=645 ops=4066 mpl=6.67", 0x62ffee0c9923a75d, sched.RetireStats{GraphEpochs: 15, RetiredVertices: 5072, Rebases: 6, ExecEntries: 451, FastPathHits: 3985, FastPathMisses: 136}},
	"mix/rsgt-g1/seed2": {"rsgt: committed=96 aborts=138 restarts=138 blocks=0 ticks=532 ops=3035 mpl=6.06", 0x28d01b2280538e8a, sched.RetireStats{GraphEpochs: 18, RetiredVertices: 3744, Rebases: 5, ExecEntries: 485, FastPathHits: 2941, FastPathMisses: 133}},
	"mix/rsgt-g1/seed3": {"rsgt: committed=96 aborts=162 restarts=162 blocks=0 ticks=595 ops=3413 mpl=5.98", 0xccdd197cf2b40dcc, sched.RetireStats{GraphEpochs: 23, RetiredVertices: 4128, Rebases: 5, ExecEntries: 487, FastPathHits: 3327, FastPathMisses: 131}},
	"mix/rsgt-g1/seed4": {"rsgt: committed=96 aborts=139 restarts=139 blocks=0 ticks=462 ops=2913 mpl=6.69", 0xb64fb36bc245745b, sched.RetireStats{GraphEpochs: 17, RetiredVertices: 3760, Rebases: 4, ExecEntries: 462, FastPathHits: 2851, FastPathMisses: 99}},
	"mix/rsgt-g1/seed5": {"rsgt: committed=96 aborts=127 restarts=127 blocks=0 ticks=598 ops=3074 mpl=5.35", 0x5f433960e081e808, sched.RetireStats{GraphEpochs: 14, RetiredVertices: 3568, Rebases: 5, ExecEntries: 486, FastPathHits: 3038, FastPathMisses: 70}},
	"mix/rsgt-g4/seed1": {"rsgt: committed=96 aborts=202 restarts=202 blocks=0 ticks=558 ops=3786 mpl=7.27", 0x3d7c44586eb85919, sched.RetireStats{GraphEpochs: 16, RetiredVertices: 4768, Rebases: 5, ExecEntries: 434, FastPathHits: 3693, FastPathMisses: 139}},
	"mix/rsgt-g4/seed2": {"rsgt: committed=96 aborts=147 restarts=147 blocks=0 ticks=507 ops=3025 mpl=6.34", 0x7db64046b1f56434, sched.RetireStats{GraphEpochs: 11, RetiredVertices: 3888, Rebases: 5, ExecEntries: 503, FastPathHits: 2943, FastPathMisses: 123}},
	"mix/rsgt-g4/seed3": {"rsgt: committed=96 aborts=149 restarts=149 blocks=0 ticks=642 ops=3303 mpl=5.38", 0x1757a3f287c95444, sched.RetireStats{GraphEpochs: 10, RetiredVertices: 3920, Rebases: 5, ExecEntries: 469, FastPathHits: 3235, FastPathMisses: 110}},
	"mix/rsgt-g4/seed4": {"rsgt: committed=96 aborts=139 restarts=139 blocks=0 ticks=462 ops=2913 mpl=6.69", 0xb64fb36bc245745b, sched.RetireStats{GraphEpochs: 17, RetiredVertices: 3760, Rebases: 4, ExecEntries: 462, FastPathHits: 2840, FastPathMisses: 110}},
	"mix/rsgt-g4/seed5": {"rsgt: committed=96 aborts=131 restarts=131 blocks=0 ticks=783 ops=3112 mpl=4.14", 0x72498f3c4ae13a64, sched.RetireStats{GraphEpochs: 14, RetiredVertices: 3632, Rebases: 5, ExecEntries: 484, FastPathHits: 3064, FastPathMisses: 86}},
	"mix/ral-g4/seed1":  {"ral: committed=96 aborts=175 restarts=175 blocks=3411 ticks=1224 ops=3599 mpl=7.58", 0x44d632f2d68d848b, sched.RetireStats{GraphEpochs: 47, RetiredVertices: 4336, Rebases: 6, ExecEntries: 506, FastPathHits: 3579, FastPathMisses: 23}},
	"mix/ral-g4/seed2":  {"ral: committed=96 aborts=145 restarts=145 blocks=2283 ticks=854 ops=3207 mpl=7.64", 0xc2b476f0aa97f2a, sched.RetireStats{GraphEpochs: 42, RetiredVertices: 3856, Rebases: 5, ExecEntries: 492, FastPathHits: 3188, FastPathMisses: 24}},
	"mix/ral-g4/seed3":  {"ral: committed=96 aborts=163 restarts=163 blocks=2109 ticks=1027 ops=3317 mpl=6.39", 0x2ef60abb9d6795f0, sched.RetireStats{GraphEpochs: 17, RetiredVertices: 4144, Rebases: 5, ExecEntries: 506, FastPathHits: 3301, FastPathMisses: 25}},
	"mix/ral-g4/seed4":  {"ral: committed=96 aborts=117 restarts=117 blocks=1820 ticks=761 ops=2755 mpl=6.71", 0x5c23325670efcc99, sched.RetireStats{GraphEpochs: 14, RetiredVertices: 3408, Rebases: 4, ExecEntries: 468, FastPathHits: 2743, FastPathMisses: 18}},
	"mix/ral-g4/seed5":  {"ral: committed=96 aborts=159 restarts=159 blocks=2154 ticks=891 ops=3322 mpl=7.14", 0xde14ffc5bace7a64, sched.RetireStats{GraphEpochs: 45, RetiredVertices: 4080, Rebases: 5, ExecEntries: 487, FastPathHits: 3314, FastPathMisses: 17}},
	"bank/rsgt/seed1":   {"rsgt: committed=109 aborts=30 restarts=30 blocks=0 ticks=114 ops=585 mpl=5.38", 0xdadc64a75c4d9121, sched.RetireStats{GraphEpochs: 10, RetiredVertices: 668, Rebases: 1, ExecEntries: 127, FastPathHits: 585, FastPathMisses: 26}},
	"bank/rsgt/seed2":   {"rsgt: committed=109 aborts=35 restarts=35 blocks=0 ticks=116 ops=590 mpl=5.37", 0xac6a7f8a030d9314, sched.RetireStats{GraphEpochs: 10, RetiredVertices: 690, Rebases: 1, ExecEntries: 117, FastPathHits: 590, FastPathMisses: 32}},
	"bank/rsgt/seed3":   {"rsgt: committed=109 aborts=33 restarts=33 blocks=0 ticks=117 ops=597 mpl=5.36", 0xd19cdc640bc3038e, sched.RetireStats{GraphEpochs: 10, RetiredVertices: 680, Rebases: 1, ExecEntries: 120, FastPathHits: 597, FastPathMisses: 30}},
	"bank/rsgt/seed4":   {"rsgt: committed=109 aborts=26 restarts=26 blocks=0 ticks=101 ops=562 mpl=5.82", 0x3fe48efb359fed0d, sched.RetireStats{GraphEpochs: 9, RetiredVertices: 608, Rebases: 1, ExecEntries: 119, FastPathHits: 562, FastPathMisses: 24}},
	"bank/rsgt/seed5":   {"rsgt: committed=109 aborts=23 restarts=23 blocks=0 ticks=121 ops=574 mpl=4.93", 0x308b170cb3bc3298, sched.RetireStats{GraphEpochs: 10, RetiredVertices: 640, Rebases: 1, ExecEntries: 134, FastPathHits: 574, FastPathMisses: 22}},
	"bank/ral/seed1":    {"ral: committed=109 aborts=24 restarts=24 blocks=106 ticks=109 ops=559 mpl=6.33", 0x688b54e570885aab, sched.RetireStats{GraphEpochs: 10, RetiredVertices: 600, Rebases: 1, ExecEntries: 133, FastPathHits: 559}},
	"bank/ral/seed2":    {"ral: committed=109 aborts=35 restarts=35 blocks=261 ticks=168 ops=583 mpl=5.24", 0x476dab884b0887b8, sched.RetireStats{GraphEpochs: 10, RetiredVertices: 644, Rebases: 1, ExecEntries: 109, FastPathHits: 583}},
	"bank/ral/seed3":    {"ral: committed=109 aborts=40 restarts=40 blocks=164 ticks=177 ops=616 mpl=4.64", 0x572b700c8006a634, sched.RetireStats{GraphEpochs: 11, RetiredVertices: 710, Rebases: 1, ExecEntries: 129, FastPathHits: 616}},
	"bank/ral/seed4":    {"ral: committed=109 aborts=46 restarts=46 blocks=125 ticks=140 ops=625 mpl=5.69", 0xcfc8fb8d5906ba13, sched.RetireStats{GraphEpochs: 12, RetiredVertices: 734, Rebases: 1, ExecEntries: 121, FastPathHits: 625}},
	"bank/ral/seed5":    {"ral: committed=109 aborts=18 restarts=18 blocks=82 ticks=107 ops=544 mpl=6.03", 0x9ad88284a58d0350, sched.RetireStats{GraphEpochs: 9, RetiredVertices: 576, Rebases: 1, ExecEntries: 134, FastPathHits: 544}},

	// The altruistic cells were captured at commit 16373ac, where
	// Altruistic and RAL still kept separate copies of the wake
	// discipline and Altruistic a donated set. Altruistic is not a
	// Retirer, so its RetireStats are zero.
	"mix/altruistic-g4/seed1": {"altruistic: committed=96 aborts=175 restarts=175 blocks=3411 ticks=1224 ops=3599 mpl=7.58", 0x44d632f2d68d848b, sched.RetireStats{}},
	"mix/altruistic-g4/seed2": {"altruistic: committed=96 aborts=145 restarts=145 blocks=2283 ticks=854 ops=3207 mpl=7.64", 0xc2b476f0aa97f2a, sched.RetireStats{}},
	"mix/altruistic-g4/seed3": {"altruistic: committed=96 aborts=163 restarts=163 blocks=2109 ticks=1027 ops=3317 mpl=6.39", 0x2ef60abb9d6795f0, sched.RetireStats{}},
	"mix/altruistic-g4/seed4": {"altruistic: committed=96 aborts=117 restarts=117 blocks=1820 ticks=761 ops=2755 mpl=6.71", 0x5c23325670efcc99, sched.RetireStats{}},
	"mix/altruistic-g4/seed5": {"altruistic: committed=96 aborts=159 restarts=159 blocks=2154 ticks=891 ops=3322 mpl=7.14", 0xde14ffc5bace7a64, sched.RetireStats{}},
	"bank/altruistic/seed1":   {"altruistic: committed=109 aborts=24 restarts=24 blocks=106 ticks=109 ops=559 mpl=6.33", 0x688b54e570885aab, sched.RetireStats{}},
	"bank/altruistic/seed2":   {"altruistic: committed=109 aborts=35 restarts=35 blocks=261 ticks=168 ops=583 mpl=5.24", 0x476dab884b0887b8, sched.RetireStats{}},
	"bank/altruistic/seed3":   {"altruistic: committed=109 aborts=40 restarts=40 blocks=164 ticks=177 ops=616 mpl=4.64", 0x572b700c8006a634, sched.RetireStats{}},
	"bank/altruistic/seed4":   {"altruistic: committed=109 aborts=46 restarts=46 blocks=125 ticks=140 ops=625 mpl=5.69", 0xcfc8fb8d5906ba13, sched.RetireStats{}},
	"bank/altruistic/seed5":   {"altruistic: committed=109 aborts=18 restarts=18 blocks=82 ticks=107 ops=544 mpl=6.03", 0x9ad88284a58d0350, sched.RetireStats{}},

	// The SGT, S2PL, TO and NoCC cells were captured at commit 38090cb,
	// before the Decide -> recoverability -> Apply arm moved into one
	// engine step, so that move is checked on every protocol's arm.
	// There is no bank/nocc cell: NoCC breaks the banking balance
	// invariant, so its run has no golden. Only SGT is a Retirer.
	"mix/sgt-g4/seed1":  {"sgt: committed=96 aborts=237 restarts=237 blocks=0 ticks=914 ops=4123 mpl=4.76", 0x42f95d2a3ae990e1, sched.RetireStats{GraphEpochs: 6, RetiredVertices: 333, Rebases: 6, ExecEntries: 442, FastPathHits: 4123, FastPathMisses: 92}},
	"mix/sgt-g4/seed2":  {"sgt: committed=96 aborts=158 restarts=158 blocks=0 ticks=811 ops=3248 mpl=4.16", 0xa237c934615191ae, sched.RetireStats{GraphEpochs: 4, RetiredVertices: 254, Rebases: 5, ExecEntries: 500, FastPathHits: 3246, FastPathMisses: 62}},
	"mix/sgt-g4/seed3":  {"sgt: committed=96 aborts=158 restarts=158 blocks=0 ticks=696 ops=3092 mpl=4.65", 0x8fc3b79da6563f18, sched.RetireStats{GraphEpochs: 4, RetiredVertices: 254, Rebases: 5, ExecEntries: 495, FastPathHits: 3087, FastPathMisses: 66}},
	"mix/sgt-g4/seed4":  {"sgt: committed=96 aborts=171 restarts=171 blocks=0 ticks=773 ops=3335 mpl=4.50", 0x6d0ec73803ebaf1d, sched.RetireStats{GraphEpochs: 5, RetiredVertices: 267, Rebases: 5, ExecEntries: 474, FastPathHits: 3330, FastPathMisses: 76}},
	"mix/sgt-g4/seed5":  {"sgt: committed=96 aborts=187 restarts=187 blocks=0 ticks=783 ops=3669 mpl=4.92", 0xbf5bca5341caacb6, sched.RetireStats{GraphEpochs: 5, RetiredVertices: 283, Rebases: 6, ExecEntries: 446, FastPathHits: 3661, FastPathMisses: 80}},
	"mix/s2pl-g4/seed1": {"s2pl: committed=96 aborts=63 restarts=63 blocks=3828 ticks=800 ops=2204 mpl=7.62", 0x188d84dc64cbe24b, sched.RetireStats{}},
	"mix/s2pl-g4/seed2": {"s2pl: committed=96 aborts=47 restarts=47 blocks=3464 ticks=719 ops=2030 mpl=7.71", 0xb622c3d7664dbfd6, sched.RetireStats{}},
	"mix/s2pl-g4/seed3": {"s2pl: committed=96 aborts=71 restarts=71 blocks=3368 ticks=753 ops=2177 mpl=7.46", 0xc6ae1d5addfd2a20, sched.RetireStats{}},
	"mix/s2pl-g4/seed4": {"s2pl: committed=96 aborts=75 restarts=75 blocks=3678 ticks=835 ops=2283 mpl=7.23", 0xf77fc61a2e1e1c2b, sched.RetireStats{}},
	"mix/s2pl-g4/seed5": {"s2pl: committed=96 aborts=67 restarts=67 blocks=3595 ticks=760 ops=2260 mpl=7.79", 0xb4f1d008b3748e14, sched.RetireStats{}},
	"mix/to-g4/seed1":   {"to: committed=96 aborts=244 restarts=244 blocks=0 ticks=891 ops=3834 mpl=4.53", 0x71b68466973208bb, sched.RetireStats{}},
	"mix/to-g4/seed2":   {"to: committed=96 aborts=241 restarts=241 blocks=0 ticks=870 ops=3679 mpl=4.46", 0xeda2ea352e15650c, sched.RetireStats{}},
	"mix/to-g4/seed3":   {"to: committed=96 aborts=138 restarts=138 blocks=0 ticks=723 ops=2722 mpl=3.93", 0xd6f51437ec288576, sched.RetireStats{}},
	"mix/to-g4/seed4":   {"to: committed=96 aborts=178 restarts=178 blocks=0 ticks=807 ops=3132 mpl=4.05", 0xe800d1e97dfe20f3, sched.RetireStats{}},
	"mix/to-g4/seed5":   {"to: committed=96 aborts=150 restarts=150 blocks=0 ticks=725 ops=3022 mpl=4.36", 0xa77900aaf91469ae, sched.RetireStats{}},
	"mix/nocc-g4/seed1": {"nocc: committed=96 aborts=221 restarts=221 blocks=0 ticks=645 ops=4066 mpl=6.67", 0x62ffee0c9923a75d, sched.RetireStats{}},
	"mix/nocc-g4/seed2": {"nocc: committed=96 aborts=138 restarts=138 blocks=0 ticks=532 ops=3035 mpl=6.06", 0x28d01b2280538e8a, sched.RetireStats{}},
	"mix/nocc-g4/seed3": {"nocc: committed=96 aborts=162 restarts=162 blocks=0 ticks=595 ops=3413 mpl=5.98", 0xccdd197cf2b40dcc, sched.RetireStats{}},
	"mix/nocc-g4/seed4": {"nocc: committed=96 aborts=139 restarts=139 blocks=0 ticks=462 ops=2913 mpl=6.69", 0xb64fb36bc245745b, sched.RetireStats{}},
	"mix/nocc-g4/seed5": {"nocc: committed=96 aborts=127 restarts=127 blocks=0 ticks=598 ops=3074 mpl=5.35", 0x5f433960e081e808, sched.RetireStats{}},
	"bank/sgt/seed1":    {"sgt: committed=109 aborts=30 restarts=30 blocks=0 ticks=114 ops=585 mpl=5.38", 0xdadc64a75c4d9121, sched.RetireStats{GraphEpochs: 3, RetiredVertices: 139, Rebases: 1, ExecEntries: 127, FastPathHits: 585, FastPathMisses: 26}},
	"bank/sgt/seed2":    {"sgt: committed=109 aborts=35 restarts=35 blocks=0 ticks=116 ops=590 mpl=5.37", 0xac6a7f8a030d9314, sched.RetireStats{GraphEpochs: 3, RetiredVertices: 144, Rebases: 1, ExecEntries: 117, FastPathHits: 590, FastPathMisses: 32}},
	"bank/sgt/seed3":    {"sgt: committed=109 aborts=33 restarts=33 blocks=0 ticks=117 ops=597 mpl=5.36", 0xd19cdc640bc3038e, sched.RetireStats{GraphEpochs: 3, RetiredVertices: 142, Rebases: 1, ExecEntries: 120, FastPathHits: 597, FastPathMisses: 30}},
	"bank/sgt/seed4":    {"sgt: committed=109 aborts=26 restarts=26 blocks=0 ticks=101 ops=562 mpl=5.82", 0x3fe48efb359fed0d, sched.RetireStats{GraphEpochs: 3, RetiredVertices: 135, Rebases: 1, ExecEntries: 119, FastPathHits: 562, FastPathMisses: 24}},
	"bank/sgt/seed5":    {"sgt: committed=109 aborts=23 restarts=23 blocks=0 ticks=121 ops=574 mpl=4.93", 0x308b170cb3bc3298, sched.RetireStats{GraphEpochs: 3, RetiredVertices: 132, Rebases: 1, ExecEntries: 134, FastPathHits: 574, FastPathMisses: 22}},
	"bank/s2pl/seed1":   {"s2pl: committed=109 aborts=24 restarts=24 blocks=56 ticks=111 ops=558 mpl=5.75", 0x66a3ffdb18ee48cf, sched.RetireStats{}},
	"bank/s2pl/seed2":   {"s2pl: committed=109 aborts=45 restarts=45 blocks=233 ticks=130 ops=603 mpl=6.78", 0xd6b9f1400120ecf4, sched.RetireStats{}},
	"bank/s2pl/seed3":   {"s2pl: committed=109 aborts=40 restarts=40 blocks=134 ticks=171 ops=605 mpl=4.56", 0x266e7ee96311ce66, sched.RetireStats{}},
	"bank/s2pl/seed4":   {"s2pl: committed=109 aborts=46 restarts=46 blocks=125 ticks=140 ops=625 mpl=5.69", 0xcfc8fb8d5906ba13, sched.RetireStats{}},
	"bank/s2pl/seed5":   {"s2pl: committed=109 aborts=20 restarts=20 blocks=88 ticks=107 ops=549 mpl=6.14", 0xf6ed4fdcd85db57c, sched.RetireStats{}},
	"bank/to/seed1":     {"to: committed=109 aborts=35 restarts=35 blocks=0 ticks=129 ops=598 mpl=4.89", 0x7bdb7bbacda42461, sched.RetireStats{}},
	"bank/to/seed2":     {"to: committed=109 aborts=53 restarts=53 blocks=0 ticks=126 ops=649 mpl=5.54", 0xe68841d471d604de, sched.RetireStats{}},
	"bank/to/seed3":     {"to: committed=109 aborts=37 restarts=37 blocks=0 ticks=161 ops=624 mpl=4.10", 0xd53851c29e7331c, sched.RetireStats{}},
	"bank/to/seed4":     {"to: committed=109 aborts=52 restarts=52 blocks=0 ticks=189 ops=696 mpl=3.92", 0xd5b8d03d827fa1ad, sched.RetireStats{}},
	"bank/to/seed5":     {"to: committed=109 aborts=28 restarts=28 blocks=0 ticks=155 ops=618 mpl=4.16", 0x5f7b2e99ad74fc8, sched.RetireStats{}},

	// The absolute-spec RSGT cells were first captured at commit 6a425ec,
	// where RSGT kept one vertex per operation and a dependency clock per
	// executed operation under every oracle. They were re-pinned when
	// RSGT under AbsoluteOracle became SGT (Lemma 1): every mix/rsgt-g0
	// cell is now the mix/sgt-g4 cell of the same seed, which
	// TestAbsoluteRSGTGoldensAreSGTs checks, and chain/rsgt keeps its
	// decisions with one vertex per instance instead of two.
	"mix/rsgt-g0/seed1": {"rsgt: committed=96 aborts=237 restarts=237 blocks=0 ticks=914 ops=4123 mpl=4.76", 0x42f95d2a3ae990e1, sched.RetireStats{GraphEpochs: 6, RetiredVertices: 333, Rebases: 6, ExecEntries: 442, FastPathHits: 4123, FastPathMisses: 92}},
	"mix/rsgt-g0/seed2": {"rsgt: committed=96 aborts=158 restarts=158 blocks=0 ticks=811 ops=3248 mpl=4.16", 0xa237c934615191ae, sched.RetireStats{GraphEpochs: 4, RetiredVertices: 254, Rebases: 5, ExecEntries: 500, FastPathHits: 3246, FastPathMisses: 62}},
	"mix/rsgt-g0/seed3": {"rsgt: committed=96 aborts=158 restarts=158 blocks=0 ticks=696 ops=3092 mpl=4.65", 0x8fc3b79da6563f18, sched.RetireStats{GraphEpochs: 4, RetiredVertices: 254, Rebases: 5, ExecEntries: 495, FastPathHits: 3087, FastPathMisses: 66}},
	"mix/rsgt-g0/seed4": {"rsgt: committed=96 aborts=171 restarts=171 blocks=0 ticks=773 ops=3335 mpl=4.50", 0x6d0ec73803ebaf1d, sched.RetireStats{GraphEpochs: 5, RetiredVertices: 267, Rebases: 5, ExecEntries: 474, FastPathHits: 3330, FastPathMisses: 76}},
	"mix/rsgt-g0/seed5": {"rsgt: committed=96 aborts=187 restarts=187 blocks=0 ticks=783 ops=3669 mpl=4.92", 0xbf5bca5341caacb6, sched.RetireStats{GraphEpochs: 5, RetiredVertices: 283, Rebases: 6, ExecEntries: 446, FastPathHits: 3661, FastPathMisses: 80}},
	"chain/rsgt/seed1":  {"rsgt: committed=400 aborts=0 restarts=0 blocks=0 ticks=100 ops=800 mpl=8.00", 0x10e90ede024070ff, sched.RetireStats{GraphEpochs: 7, RetiredVertices: 400, Rebases: 1, ExecEntries: 289, FastPathHits: 800}},
	"chain/rsgt/seed2":  {"rsgt: committed=400 aborts=0 restarts=0 blocks=0 ticks=100 ops=800 mpl=8.00", 0x83fc61e4e00ae6eb, sched.RetireStats{GraphEpochs: 7, RetiredVertices: 400, Rebases: 1, ExecEntries: 289, FastPathHits: 800}},
	"chain/rsgt/seed3":  {"rsgt: committed=400 aborts=0 restarts=0 blocks=0 ticks=100 ops=800 mpl=8.00", 0x2364b8a4eef53f73, sched.RetireStats{GraphEpochs: 7, RetiredVertices: 400, Rebases: 1, ExecEntries: 289, FastPathHits: 800}},
	"chain/rsgt/seed4":  {"rsgt: committed=400 aborts=0 restarts=0 blocks=0 ticks=100 ops=800 mpl=8.00", 0xb72fbed946268c03, sched.RetireStats{GraphEpochs: 7, RetiredVertices: 400, Rebases: 1, ExecEntries: 289, FastPathHits: 800}},
	"chain/rsgt/seed5":  {"rsgt: committed=400 aborts=0 restarts=0 blocks=0 ticks=100 ops=800 mpl=8.00", 0xa0a16391b23b10f5, sched.RetireStats{GraphEpochs: 7, RetiredVertices: 400, Rebases: 1, ExecEntries: 289, FastPathHits: 800}},
}
