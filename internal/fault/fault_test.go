package fault

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("wal.torn:0.01,txn.abort:0.05,store.read.delay:0.1:2ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Rules) != 3 {
		t.Fatalf("got %d rules, want 3", len(spec.Rules))
	}
	// Canonical form is sorted and re-parseable.
	round, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("canonical form %q does not re-parse: %v", spec.String(), err)
	}
	if round.String() != spec.String() {
		t.Fatalf("round trip changed spec: %q vs %q", round.String(), spec.String())
	}
	var delay Rule
	for _, r := range spec.Rules {
		if r.Point == StoreReadDelay {
			delay = r
		}
	}
	if delay.Rate != 0.1 || delay.Param != 2*time.Millisecond {
		t.Fatalf("store.read.delay rule = %+v", delay)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"nope:0.5",                  // unknown point
		"wal.short:0.5",             // retired with the single-file writer
		"wal.torn",                  // missing rate
		"wal.torn:1.5",              // rate out of range
		"wal.torn:NaN",              // not a probability, yet passes both range tests
		"wal.torn:-Inf",             // not finite
		"wal.torn:x",                // malformed rate
		"wal.torn:0.1:zzz",          // malformed duration
		"wal.torn:0.1:1s:junk",      // too many fields
		"wal.torn:0.1,wal.torn:0.2", // duplicate
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", bad)
		}
	}
	if spec, err := ParseSpec("  "); err != nil || len(spec.Rules) != 0 {
		t.Errorf("blank spec should parse empty, got %v / %v", spec, err)
	}
}

func TestDeterministicFiring(t *testing.T) {
	spec := MustParseSpec("txn.abort:0.2,wal.torn:0.05")
	a := New(42, spec)
	b := New(42, spec)
	const n = 5000
	for i := 0; i < n; i++ {
		if a.Fire(TxnForcedAbort) != b.Fire(TxnForcedAbort) {
			t.Fatalf("same-seed injectors diverged at txn.abort call %d", i)
		}
		if a.Fire(WALTorn) != b.Fire(WALTorn) {
			t.Fatalf("same-seed injectors diverged at wal.torn call %d", i)
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprints differ: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	// Interleaving order between points must not matter: consult the
	// points in a different order and still match.
	c := New(42, spec)
	for i := 0; i < n; i++ {
		c.Fire(WALTorn)
	}
	for i := 0; i < n; i++ {
		c.Fire(TxnForcedAbort)
	}
	if c.Fingerprint() != a.Fingerprint() {
		t.Fatal("firing schedule depends on cross-point interleaving")
	}
	// A different seed yields a different schedule.
	d := New(43, spec)
	for i := 0; i < n; i++ {
		d.Fire(TxnForcedAbort)
		d.Fire(WALTorn)
	}
	if d.Fingerprint() == a.Fingerprint() {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestFiringRate(t *testing.T) {
	in := New(7, MustParseSpec("txn.abort:0.1"))
	fired := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if in.Fire(TxnForcedAbort) {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.08 || frac > 0.12 {
		t.Fatalf("rate 0.1 fired %.3f of %d calls", frac, n)
	}
	sched := in.Schedule()
	if len(sched) != 1 || sched[0].Calls != n || sched[0].Fired != int64(fired) {
		t.Fatalf("schedule mismatch: %+v", sched)
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if in.Fire(WALTorn) || in.Active(WALTorn) {
		t.Fatal("nil injector fired")
	}
	if fired, _ := in.FireCut(WALTorn, 10); fired {
		t.Fatal("nil injector FireCut fired")
	}
	if in.Latency(StoreReadDelay) != 0 {
		t.Fatal("nil injector leaked values")
	}
	if in.Schedule() != nil || in.Fingerprint() != "none" {
		t.Fatal("nil injector schedule not empty")
	}
	in.WedgeCtx(context.Background()) // must not block
	in.Release()                      // must not panic
}

func TestUnarmedPointNeverFires(t *testing.T) {
	in := New(1, MustParseSpec("wal.torn:1"))
	for i := 0; i < 100; i++ {
		if in.Fire(TxnForcedAbort) {
			t.Fatal("unarmed point fired")
		}
	}
	if !in.Fire(WALTorn) {
		t.Fatal("rate-1 point did not fire")
	}
}

func TestFireCutBounds(t *testing.T) {
	in := New(3, MustParseSpec("wal.torn:1"))
	for i := 0; i < 1000; i++ {
		fired, cut := in.FireCut(WALTorn, 16)
		if !fired {
			t.Fatal("rate-1 point did not fire")
		}
		if cut < 0 || cut >= 16 {
			t.Fatalf("cut %d out of [0,16)", cut)
		}
	}
}

func TestWedgeRelease(t *testing.T) {
	in := New(1, Spec{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			in.WedgeCtx(context.Background())
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		t.Fatal("WedgeCtx returned before Release")
	case <-time.After(20 * time.Millisecond):
	}
	in.Release()
	in.Release() // idempotent
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WedgeCtx did not return after Release")
	}
	in.WedgeCtx(context.Background()) // post-release wedges pass straight through
}

func TestLatencyDefaults(t *testing.T) {
	in := New(1, MustParseSpec("store.read.delay:0.5,shard.stall:0.5:3ms"))
	if in.Latency(StoreReadDelay) != defaultDelay {
		t.Fatalf("default latency = %v", in.Latency(StoreReadDelay))
	}
	if in.Latency(ShardStall) != 3*time.Millisecond {
		t.Fatalf("explicit latency = %v", in.Latency(ShardStall))
	}
	if in.Latency(WALTorn) != 0 {
		t.Fatal("unarmed point has latency")
	}
}

func TestPointsRegistryCoversSpecGrammar(t *testing.T) {
	for _, p := range Points() {
		if _, err := ParseSpec(string(p) + ":0.5"); err != nil {
			t.Errorf("registered point %q rejected by parser: %v", p, err)
		}
	}
	if !strings.Contains(joinPoints(), string(WALTorn)) {
		t.Fatal("joinPoints misses registered points")
	}
}
