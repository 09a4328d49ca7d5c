package record_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"relser/internal/record"
	"relser/internal/sched"
	"relser/internal/txn"
	"relser/internal/workload"
)

func mustProto(t *testing.T, name string, w *workload.Workload) sched.Protocol {
	t.Helper()
	p, err := sched.NewProtocol(name, w.Oracle)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func det(name string, seed int64) record.Manifest {
	return record.Manifest{
		Workload:    workload.BuildParams{Name: name, Seed: seed},
		Protocol:    "s2pl",
		Seed:        seed,
		MPL:         8,
		MaxRestarts: 100000,
	}
}

func mustRecord(t *testing.T, m record.Manifest) *record.Recording {
	t.Helper()
	rr, err := record.Record(context.Background(), m, record.Observers{})
	if err != nil {
		t.Fatalf("record %+v: %v", m.Workload, err)
	}
	rec, err := record.Decode(rr.Encode())
	if err != nil {
		t.Fatalf("decode own recording: %v", err)
	}
	return rec
}

// TestReplayByteIdentical: a recording with no overrides replays with
// zero divergences — same verdict, counters, fault fingerprint, WAL
// bytes, stage log and final store — including under fault injection
// and on both a one-lane and a rotating four-lane log.
func TestReplayByteIdentical(t *testing.T) {
	cases := []record.Manifest{
		det("banking", 1),
		det("cadcam", 2),
	}
	cases[0].WALMode = "segmented"
	cases[0].FaultSpec = "wal.torn:0.004,wal.corrupt:0.003,wal.crash:0.002"
	cases[0].FaultSeed = 7
	cases[1].WALMode = "segmented"
	cases[1].WALShards = 4
	cases[1].WALSegmentBytes = 512
	cases[1].Protocol = "to"
	for _, m := range cases {
		rec := mustRecord(t, m)
		rep, err := record.Replay(context.Background(), rec, record.ReplayOptions{})
		if err != nil {
			t.Fatalf("%s: replay: %v", m.Workload.Name, err)
		}
		if rep.Mode != "byte-identical" || !rep.Deterministic || rep.Recorded.WALHash == "" {
			t.Fatalf("%s: mode=%s deterministic=%v wal_hash=%q, want byte-identical deterministic with WAL bytes", m.Workload.Name, rep.Mode, rep.Deterministic, rep.Recorded.WALHash)
		}
		if !rep.Identical {
			t.Fatalf("%s: replay diverged: %+v", m.Workload.Name, rep.Divergences)
		}
	}
}

// TestRetireOnRecordingRoundTrips: an RSGT recording (retirement and
// the vector-clock fast path always on) replays byte-identically — the
// epoch machinery is verdict- and schedule-invisible.
func TestRetireOnRecordingRoundTrips(t *testing.T) {
	m := det("banking", 11)
	m.Protocol = "rsgt"
	rep, err := record.Replay(context.Background(), mustRecord(t, m), record.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical {
		t.Fatalf("retirement-on recording diverged: %+v", rep.Divergences)
	}
}

// TestReplayDeterminismMatrix records a seeded banking and cadcam run,
// then replays each at shards {1,4,16} x {s2pl,to}. The schedule is a
// pure function of (programs, protocol, seed) on the deterministic
// driver — shards only stripe the protocol's tables — so every cell
// must certify and land on the recorded final store.
func TestReplayDeterminismMatrix(t *testing.T) {
	for _, wl := range []string{"banking", "cadcam"} {
		rec := mustRecord(t, det(wl, 42))
		if rec.Outcome.Verdict != "pass" || rec.Outcome.Invariant != "pass" {
			t.Fatalf("%s: baseline verdict=%q invariant=%q", wl, rec.Outcome.Verdict, rec.Outcome.Invariant)
		}
		for _, proto := range []string{"s2pl", "to"} {
			for _, shards := range []int{1, 4, 16} {
				rep, err := record.Replay(context.Background(), rec, record.ReplayOptions{Protocol: proto, Shards: shards})
				if err != nil {
					t.Fatalf("%s/%s/shards=%d: %v", wl, proto, shards, err)
				}
				if rep.Replayed.Verdict != "pass" {
					t.Errorf("%s/%s/shards=%d: verdict %q", wl, proto, shards, rep.Replayed.Verdict)
				}
				if rep.Replayed.Invariant != "pass" {
					t.Errorf("%s/%s/shards=%d: invariant %q", wl, proto, shards, rep.Replayed.Invariant)
				}
				for _, d := range rep.Divergences {
					if d.Kind == "state" {
						t.Errorf("%s/%s/shards=%d: state divergence at %s: %s -> %s",
							wl, proto, shards, d.Object, d.Recorded, d.Replayed)
					}
				}
				// Shard count alone must not perturb the deterministic
				// schedule at all.
				if proto == "s2pl" && !rep.Identical {
					t.Errorf("%s/s2pl/shards=%d: expected byte-identical replay, diverged: %+v", wl, shards, rep.Divergences)
				}
			}
		}
	}
}

// TestBackfillDivergenceStable: replaying under the absolute spec is a
// backfill whose divergence report must be non-empty (the relative
// spec admits interleavings serializability pays for in blocking) and
// byte-for-byte stable across repeated backfills.
func TestBackfillDivergenceStable(t *testing.T) {
	m := det("banking", 7)
	m.Workload.Crossing = true
	m.Protocol = "rsgt"
	m.MPL = 16
	rec := mustRecord(t, m)
	var first *record.Report
	for i := 0; i < 3; i++ {
		rep, err := record.Replay(context.Background(), rec, record.ReplayOptions{Spec: "absolute"})
		if err != nil {
			t.Fatalf("backfill %d: %v", i, err)
		}
		if rep.Mode != "backfill" {
			t.Fatalf("backfill %d: mode %q", i, rep.Mode)
		}
		if len(rep.Divergences) == 0 {
			t.Fatalf("backfill %d: empty divergence report (expected the spec change to show up)", i)
		}
		if first == nil {
			first = rep
			continue
		}
		if len(rep.Divergences) != len(first.Divergences) {
			t.Fatalf("backfill %d: unstable report: %d vs %d divergences", i, len(rep.Divergences), len(first.Divergences))
		}
		for j, d := range rep.Divergences {
			if d != first.Divergences[j] {
				t.Fatalf("backfill %d: divergence %d differs: %+v vs %+v", i, j, d, first.Divergences[j])
			}
		}
	}
}

// TestReplayFaultOverrides: -faults off suppresses the recorded
// injections (a divergence in backfill mode), and a custom spec parses.
func TestReplayFaultOverrides(t *testing.T) {
	m := det("banking", 3)
	m.FaultSpec = "txn.abort:0.2"
	m.FaultSeed = 9
	rec := mustRecord(t, m)
	if rec.Outcome.InjectedAborts == 0 {
		t.Fatal("baseline recorded no injected aborts; spec did not arm")
	}
	rep, err := record.Replay(context.Background(), rec, record.ReplayOptions{Faults: "off"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "backfill" {
		t.Fatalf("faults-off mode %q", rep.Mode)
	}
	if rep.Replayed.InjectedAborts != 0 {
		t.Fatalf("faults off still injected %d aborts", rep.Replayed.InjectedAborts)
	}
	if _, err := record.Replay(context.Background(), rec, record.ReplayOptions{Faults: "no-such-point:1"}); err == nil {
		t.Fatal("bad fault spec override accepted")
	}
}

// TestRecordWedgeClass: a concurrent run wedged by injection records
// outcome class "wedged", and replaying reproduces the same class (the
// wedge itself, not merely the error text, which embeds wall-clock
// durations).
func TestRecordWedgeClass(t *testing.T) {
	m := record.Manifest{
		Workload:    workload.BuildParams{Name: "banking", Seed: 5},
		Protocol:    "nocc",
		Seed:        5,
		MPL:         8,
		Shards:      4,
		MaxRestarts: 100000,
		Concurrent:  true,
		Watchdog:    300 * 1e6, // 300ms
		FaultSpec:   "shard.wedge:1",
		FaultSeed:   5,
	}
	rec := mustRecord(t, m)
	if rec.Outcome.Outcome != "wedged" {
		t.Fatalf("recorded outcome %q, want wedged (error %q)", rec.Outcome.Outcome, rec.Outcome.Error)
	}
	rep, err := record.Replay(context.Background(), rec, record.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic {
		// Concurrent recordings compare classes only.
		if rep.Replayed.Outcome != "wedged" {
			t.Fatalf("replayed outcome %q, want wedged", rep.Replayed.Outcome)
		}
	}
	if !rep.Identical {
		t.Fatalf("wedge replay diverged: %+v", rep.Divergences)
	}
}

// TestArtifactRoundTrip writes and re-reads an artifact from disk and
// checks every section survives.
func TestArtifactRoundTrip(t *testing.T) {
	m := det("banking", 1)
	m.FaultSpec = "txn.abort:0.1"
	m.FaultSeed = 4
	rr, err := record.Record(context.Background(), m, record.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.rsrec")
	if err := rr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	rec, err := record.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Manifest.FaultSpec != m.FaultSpec || rec.Manifest.FaultSeed != m.FaultSeed {
		t.Fatalf("manifest fault stamp lost: %+v", rec.Manifest)
	}
	if len(rec.Initial) == 0 {
		t.Fatal("no snapshot anchor")
	}
	if len(rec.Stages) == 0 {
		t.Fatal("no stage events")
	}
	if rec.Outcome.Outcome != "completed" {
		t.Fatalf("outcome %q", rec.Outcome.Outcome)
	}
	if rec.Outcome.FaultFingerprint == "" {
		t.Fatal("no fault fingerprint in outcome")
	}
}

// TestDecodeRejectsDamage: bad magic, bad version, flipped bytes and
// truncated mandatory frames all surface ErrUnreadable, never a
// misparse.
func TestDecodeRejectsDamage(t *testing.T) {
	rr, err := record.Record(context.Background(), det("banking", 1), record.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	good := rr.Encode()
	if _, err := record.Decode(good); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}

	check := func(name string, b []byte) {
		t.Helper()
		if _, err := record.Decode(b); !errors.Is(err, record.ErrUnreadable) {
			t.Errorf("%s: got %v, want ErrUnreadable", name, err)
		}
	}
	check("empty", nil)
	check("bad magic", append([]byte("NOPE"), good[4:]...))
	bad := append([]byte(nil), good...)
	bad[4] = 99
	check("bad version", bad)
	for _, off := range []int{9, len(good) / 2, len(good) - 3} {
		flip := append([]byte(nil), good...)
		flip[off] ^= 0xff
		check("bit flip", flip)
	}
	check("truncated before outcome", good[:len(good)/2])
}

// TestHooksChain: the recording tap preserves a downstream hook set.
func TestHooksChain(t *testing.T) {
	m := det("banking", 1)
	rr := record.NewRecorder(m)
	var commits int
	h := rr.Hooks(txn.Hooks{Commit: func(*txn.Instance) { commits++ }})
	w, err := workload.Build(m.Workload)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := w.RunWith(mustProto(t, m.Protocol, w), workload.RunOptions{Seed: m.Seed, MPL: m.MPL, Hooks: h})
	if err != nil {
		t.Fatal(err)
	}
	if commits != res.Committed {
		t.Fatalf("downstream commit hook fired %d times, committed %d", commits, res.Committed)
	}
	if rr.StageEvents() == 0 {
		t.Fatal("recording tap captured nothing")
	}
}
