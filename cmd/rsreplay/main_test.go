package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"relser/internal/record"
	"relser/internal/workload"
)

// writeRecording records a small deterministic banking run to disk and
// returns the artifact path.
func writeRecording(t *testing.T, mutate func(*record.Manifest)) string {
	t.Helper()
	m := record.Manifest{
		Workload:    workload.BuildParams{Name: "banking", Seed: 7, Crossing: true},
		Protocol:    "rsgt",
		Seed:        7,
		MPL:         16,
		MaxRestarts: 100000,
	}
	if mutate != nil {
		mutate(&m)
	}
	rr, err := record.Record(context.Background(), m, record.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.rsrec")
	if err := rr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func runReplay(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func decodeReport(t *testing.T, stdout string) record.Report {
	t.Helper()
	var rep record.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout)
	}
	return rep
}

// TestIdenticalReplayExitsZero: byte-identical replay of a
// deterministic recording exits 0 with an identical report — on every
// attempt, not just the first.
func TestIdenticalReplayExitsZero(t *testing.T) {
	path := writeRecording(t, nil)
	for i := 0; i < 3; i++ {
		code, stdout, stderr := runReplay(t, "-in", path)
		if code != 0 {
			t.Fatalf("attempt %d: exit %d, stderr %q stdout %s", i, code, stderr, stdout)
		}
		rep := decodeReport(t, stdout)
		if !rep.Identical || rep.Mode != "byte-identical" || len(rep.Divergences) != 0 {
			t.Fatalf("attempt %d: report %+v", i, rep)
		}
	}
}

// TestCommittedCorpusWALFacet pins what the committed banking artifact
// owes through the CLI: replay exits 0, identical, with the recorded
// and replayed WAL bytes equal and non-empty, on every attempt; while
// editing one other recorded facet (re-sealing the frames) diverges
// with exit 3 on that facet alone. Every artifact's replay is pinned by
// record.TestOldCorpusReplaysByteIdentical.
func TestCommittedCorpusWALFacet(t *testing.T) {
	bank := filepath.Join("..", "..", "examples", "recordings", "banking-wal-chaos.rsrec")
	for i := 0; i < 2; i++ {
		code, stdout, stderr := runReplay(t, "-in", bank)
		rep := decodeReport(t, stdout)
		if code != 0 || !rep.Identical || !rep.Deterministic {
			t.Fatalf("%s attempt %d: exit %d, stderr %q, report %+v", bank, i, code, stderr, rep)
		}
		if rep.Recorded.WALHash == "" || rep.Recorded.WALLen == 0 ||
			rep.Recorded.WALHash != rep.Replayed.WALHash || rep.Recorded.WALLen != rep.Replayed.WALLen {
			t.Fatalf("%s attempt %d: WAL bytes recorded %s/%d, replayed %s/%d", bank, i,
				rep.Recorded.WALHash, rep.Recorded.WALLen, rep.Replayed.WALHash, rep.Replayed.WALLen)
		}
	}

	raw, err := os.ReadFile(bank)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := record.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(raw, []byte(rec.Outcome.StageHash), []byte("0000000000000000"), 1)
	table := crc32.MakeTable(crc32.Castagnoli)
	for off := 8; off+8 <= len(edited); { // re-seal every frame over the edit
		size := int(binary.LittleEndian.Uint32(edited[off:]))
		binary.LittleEndian.PutUint32(edited[off+4:], crc32.Checksum(edited[off+8:off+8+size], table))
		off += 8 + size
	}
	flipped := filepath.Join(t.TempDir(), "flipped.rsrec")
	if err := os.WriteFile(flipped, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runReplay(t, "-in", flipped)
	rep := decodeReport(t, stdout)
	if code != 3 || len(rep.Divergences) != 1 || rep.Divergences[0].Kind != "stage-log" {
		t.Fatalf("flipped stage hash: exit %d, stderr %q, divergences %+v; want exit 3 on stage-log alone", code, stderr, rep.Divergences)
	}
}

// TestBackfillDivergenceExitsThree: -spec absolute on a recording whose
// relative spec did real work diverges with exit 3 and the same report
// every time.
func TestBackfillDivergenceExitsThree(t *testing.T) {
	path := writeRecording(t, nil)
	var first string
	for i := 0; i < 3; i++ {
		code, stdout, stderr := runReplay(t, "-in", path, "-spec", "absolute", "-compact")
		if code != 3 {
			t.Fatalf("attempt %d: exit %d (want 3), stderr %q stdout %s", i, code, stderr, stdout)
		}
		rep := decodeReport(t, stdout)
		if rep.Mode != "backfill" || rep.Identical || len(rep.Divergences) == 0 {
			t.Fatalf("attempt %d: report %+v", i, rep)
		}
		if first == "" {
			first = stdout
		} else if stdout != first {
			t.Fatalf("attempt %d: unstable report:\n%s\nvs\n%s", i, stdout, first)
		}
	}
}

// TestFaultReplayByDefault: a recording with an armed injector replays
// the same schedule (exit 0) by default and under
// -faults-from-recording; -faults off is a backfill that removes the
// injections.
func TestFaultReplayByDefault(t *testing.T) {
	path := writeRecording(t, func(m *record.Manifest) {
		m.FaultSpec = "txn.abort:0.2"
		m.FaultSeed = 9
	})
	for _, args := range [][]string{
		{"-in", path},
		{"-in", path, "-faults-from-recording"},
	} {
		code, stdout, stderr := runReplay(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr %q stdout %s", args, code, stderr, stdout)
		}
	}
	code, stdout, _ := runReplay(t, "-in", path, "-faults", "off")
	rep := decodeReport(t, stdout)
	if rep.Mode != "backfill" {
		t.Fatalf("faults-off mode %q", rep.Mode)
	}
	if code != 3 || rep.Replayed.InjectedAborts != 0 {
		t.Fatalf("faults-off: exit %d, replayed injected aborts %d", code, rep.Replayed.InjectedAborts)
	}
	if _, _, stderr := runReplay(t, "-in", path, "-faults-from-recording", "-faults", "off"); stderr == "" {
		t.Fatal("conflicting fault flags accepted")
	}
}

// TestUnreadableArtifactExitsFour: damage at any layer — missing file,
// truncated artifact, flipped byte — is exit 4 with a structured JSON
// error naming the file.
func TestUnreadableArtifactExitsFour(t *testing.T) {
	path := writeRecording(t, nil)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	trunc := filepath.Join(dir, "trunc.rsrec")
	os.WriteFile(trunc, good[:len(good)/2], 0o644)
	flip := append([]byte(nil), good...)
	flip[len(flip)/2] ^= 0xff
	flipped := filepath.Join(dir, "flip.rsrec")
	os.WriteFile(flipped, flip, 0o644)

	for _, in := range []string{filepath.Join(dir, "missing.rsrec"), trunc, flipped} {
		for i := 0; i < 2; i++ {
			code, _, stderr := runReplay(t, "-in", in)
			if code != 4 {
				t.Fatalf("%s attempt %d: exit %d (want 4), stderr %q", in, i, code, stderr)
			}
			var re replayError
			if err := json.Unmarshal([]byte(stderr), &re); err != nil {
				t.Fatalf("%s: stderr not JSON: %v\n%s", in, err, stderr)
			}
			if re.Error != "unreadable-artifact" || re.Path != in {
				t.Fatalf("%s: error %+v", in, re)
			}
		}
	}
}

// TestUsageErrors: missing -in and bad overrides are exit 1, not 3/4.
func TestUsageErrors(t *testing.T) {
	if code, _, _ := runReplay(t); code != 1 {
		t.Fatal("missing -in accepted")
	}
	path := writeRecording(t, nil)
	if code, _, _ := runReplay(t, "-in", path, "-protocol", "no-such-proto"); code != 1 {
		t.Fatal("unknown protocol override not a usage error")
	}
	if code, _, _ := runReplay(t, "-in", path, "-spec", "no-such-spec"); code != 1 {
		t.Fatal("unknown spec override not a usage error")
	}
}
