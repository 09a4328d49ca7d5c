package relser_test

// Trace-stream identity for the serial driver. The decision goldens pin
// result lines and committed schedules, and recordings pin admit,
// commit, abort and recover; neither pins the order in which the engine
// and driver emit trace events. These goldens hash every event of a
// serial run, every field except the wall-clock timestamp, so moving an
// emission point (or changing what an event carries) fails here.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"relser/internal/fault"
	"relser/internal/sched"
	"relser/internal/trace"
	"relser/internal/workload"
)

type traceCell struct {
	name     string
	protocol string
	build    func(seed int64) (*workload.Workload, error)
	faults   string
	deadline int64
	// covers lists "kind/reason" pairs the stream must contain, so the
	// cell keeps exercising the paths it is meant to pin.
	covers []string
}

var traceCells = []traceCell{
	{"bank/rsgt-faults", "rsgt", func(seed int64) (*workload.Workload, error) {
		cfg := workload.DefaultBankingConfig()
		cfg.Customers = 48
		cfg.BankAudits = 0 // a whole-bank audit outlives any deadline that bites the rest
		return workload.Banking(cfg, seed)
	}, "txn.abort:0.2,sched.grant.delay:0.05", 6, []string{
		"fault/txn.abort", "fault/sched.grant.delay", "txn-abort/deadline", "txn-abort/injected", "abort/",
	}},
	{"mix/s2pl-g2", "s2pl", identityMix(2), "", 0, []string{"block/", "lock-wait/"}},
}

// traceGolden is one run's event count and the FNV-1a digest of its
// events as JSON with the timestamp zeroed.
type traceGolden struct {
	events int
	digest uint64
}

func runTraceCell(t *testing.T, c traceCell, seed int64) traceGolden {
	t.Helper()
	w, err := c.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sched.NewProtocol(c.protocol, w.Oracle)
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.NewBuffer()
	opts := workload.RunOptions{Seed: seed, MPL: 8, Tracer: trace.New(buf), Deadline: c.deadline}
	if c.faults != "" {
		opts.Faults = fault.New(seed, fault.MustParseSpec(c.faults))
	}
	if _, _, err := w.RunWith(p, opts); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	evs := buf.Events()
	seen := map[string]bool{}
	for _, ev := range evs {
		seen[string(ev.Kind)+"/"+ev.Reason] = true
		seen[string(ev.Kind)+"/"] = true
		ev.TS = 0
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	for _, k := range c.covers {
		if !seen[k] {
			t.Errorf("stream has no %s event", k)
		}
	}
	return traceGolden{len(evs), h.Sum64()}
}

func TestSerialTraceStreamIdentical(t *testing.T) {
	for _, c := range traceCells {
		for seed := int64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("%s/seed%d", c.name, seed)
			t.Run(key, func(t *testing.T) {
				got := runTraceCell(t, c, seed)
				want, ok := traceGoldens[key]
				if !ok {
					t.Fatalf("no golden; got:\n%q: {%d, %#x},", key, got.events, got.digest)
				}
				if got != want {
					t.Errorf("trace stream changed: got %d events (digest %#x), want %d (digest %#x)", got.events, got.digest, want.events, want.digest)
				}
			})
		}
	}
}

// traceGoldens: captured from commit 651116e, before the engine took
// over the drivers' per-operation bookkeeping.
var traceGoldens = map[string]traceGolden{
	"bank/rsgt-faults/seed1": {1409, 0xfb7c7d1b74f62d46},
	"bank/rsgt-faults/seed2": {1366, 0x58acf780e2cac18e},
	"bank/rsgt-faults/seed3": {1507, 0x1fab31c08a9cb337},
	"mix/s2pl-g2/seed1":      {12508, 0x6316b8a6e8cf5cb},
	"mix/s2pl-g2/seed2":      {11368, 0xec429d2d11ceaa5a},
	"mix/s2pl-g2/seed3":      {11566, 0xad2db746987e6702},
}
