package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relser/internal/storage"
)

func runRecover(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestMissingFlagExitsOne(t *testing.T) {
	if code, _, _ := runRecover(t); code != 1 {
		t.Fatalf("missing -wal: exit %d, want 1", code)
	}
}

// writeSegmentedLog runs twelve transactions through a log rotating
// at 256 bytes in dir and returns how many segments it published.
func writeSegmentedLog(t *testing.T, dir string) int {
	t.Helper()
	w, err := storage.OpenShardedWAL(dir, storage.SegmentedOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 12; id++ {
		recs := []storage.WALRecord{
			{Kind: storage.WALBegin, Instance: id},
			{Kind: storage.WALWrite, Instance: id, Object: fmt.Sprintf("o%d", id), Value: storage.Value(id)},
			{Kind: storage.WALCommit, Instance: id},
		}
		for _, rec := range recs[:2] {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.AppendSync(recs[2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "shard-00", "seg-*.wal"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want a rotated log, got segments %v (err %v)", segs, err)
	}
	return len(segs)
}

// damageLog truncates (torn) or bit-flips (corrupt) the last segment of
// the log in dir.
func damageLog(t *testing.T, dir string, corrupt bool) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "shard-00", "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	path := segs[len(segs)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt {
		data[len(data)-2] ^= 0x40 // payload bit of the final record
	} else {
		data = data[:len(data)-3] // tear inside the final record
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeOneLaneLog writes a one-lane log in dir: instance 1 commits
// x=41 and y=59, then instance 2 writes x=7 and never finishes.
func writeOneLaneLog(t *testing.T, dir string) {
	t.Helper()
	w, err := storage.OpenShardedWAL(dir, storage.SegmentedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []storage.WALRecord{
		{Kind: storage.WALBegin, Instance: 1},
		{Kind: storage.WALWrite, Instance: 1, Object: "x", Value: 41},
		{Kind: storage.WALWrite, Instance: 1, Object: "y", Value: 59},
		{Kind: storage.WALCommit, Instance: 1},
		{Kind: storage.WALBegin, Instance: 2},
		{Kind: storage.WALWrite, Instance: 2, Object: "x", Value: 7},
	} {
		if err := w.AppendSync(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCleanLogExitsZero(t *testing.T) {
	dir := t.TempDir()
	writeOneLaneLog(t, dir)
	code, stdout, stderr := runRecover(t, "-wal", dir)
	if code != 0 {
		t.Fatalf("clean log: exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "x = 41") || !strings.Contains(stdout, "y = 59") {
		t.Fatalf("committed values missing from output:\n%s", stdout)
	}
	if strings.Contains(stdout, "x = 7") {
		t.Fatalf("unfinished instance's write leaked into recovery:\n%s", stdout)
	}
}

func TestTornTailExitsThreeWithStructuredError(t *testing.T) {
	dir := t.TempDir()
	writeOneLaneLog(t, dir)
	damageLog(t, dir, false)
	code, stdout, stderr := runRecover(t, "-wal", dir)
	if code != 3 {
		t.Fatalf("torn tail: exit %d, want 3 (stderr %q)", code, stderr)
	}
	var te tailError
	if err := json.Unmarshal([]byte(strings.TrimSpace(stderr)), &te); err != nil {
		t.Fatalf("stderr is not one JSON line: %v\n%q", err, stderr)
	}
	if te.Error != "torn-tail" || te.Segment != 0 || te.Detail == "" || te.Offset <= 0 || te.Records != 5 {
		t.Fatalf("unexpected structured error: %+v", te)
	}
	// The committed prefix must still recover.
	if !strings.Contains(stdout, "x = 41") {
		t.Fatalf("valid prefix not recovered:\n%s", stdout)
	}
}

func TestCorruptTailWarnsByDefaultAndFailsStrict(t *testing.T) {
	dir := t.TempDir()
	writeOneLaneLog(t, dir)
	damageLog(t, dir, true)

	code, _, stderr := runRecover(t, "-wal", dir)
	if code != 0 {
		t.Fatalf("corrupt tail without -strict: exit %d, want 0 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "warning") || !strings.Contains(stderr, "corrupt") {
		t.Fatalf("expected a corrupt-tail warning, got %q", stderr)
	}

	code, _, stderr = runRecover(t, "-wal", dir, "-strict")
	if code != 4 {
		t.Fatalf("corrupt tail with -strict: exit %d, want 4 (stderr %q)", code, stderr)
	}
	var te tailError
	if err := json.Unmarshal([]byte(strings.TrimSpace(stderr)), &te); err != nil || te.Error != "corrupt-tail" {
		t.Fatalf("want structured corrupt-tail error, got %q (err %v)", stderr, err)
	}
}

func TestSegmentedCleanExitsZero(t *testing.T) {
	dir := t.TempDir()
	writeSegmentedLog(t, dir)
	code, stdout, stderr := runRecover(t, "-wal", dir)
	if code != 0 {
		t.Fatalf("clean segmented log: exit %d, stderr %q", code, stderr)
	}
	for id := 1; id <= 12; id++ {
		if !strings.Contains(stdout, fmt.Sprintf("o%d = %d", id, id)) {
			t.Fatalf("committed o%d missing from output:\n%s", id, stdout)
		}
	}
}

func TestSegmentedCorruptWarnsThenFailsStrict(t *testing.T) {
	dir := t.TempDir()
	last := writeSegmentedLog(t, dir) - 1
	damageLog(t, dir, true)

	code, _, stderr := runRecover(t, "-wal", dir)
	if code != 0 {
		t.Fatalf("corrupt log without -strict: exit %d (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, fmt.Sprintf("segment %d", last)) {
		t.Fatalf("warning does not name segment %d: %q", last, stderr)
	}

	code, _, stderr = runRecover(t, "-wal", dir, "-strict")
	if code != 4 {
		t.Fatalf("corrupt log with -strict: exit %d, want 4 (stderr %q)", code, stderr)
	}
	var te tailError
	if err := json.Unmarshal([]byte(strings.TrimSpace(stderr)), &te); err != nil || te.Error != "corrupt-tail" || te.Segment != last {
		t.Fatalf("want structured corrupt-tail in segment %d, got %q (err %v)", last, stderr, err)
	}
}

// TestOtherLaneRefused: the log has one lane, so a directory holding a
// shard-01 lane (a log written with more) is refused with exit 1 and a
// message naming the lane, not recovered from lane 0 alone.
func TestOtherLaneRefused(t *testing.T) {
	dir := t.TempDir()
	writeSegmentedLog(t, dir)
	if err := os.Mkdir(filepath.Join(dir, "shard-01"), 0o755); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runRecover(t, "-wal", dir)
	if code != 1 || stdout != "" || !strings.Contains(stderr, "lane 1") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 naming lane 1", code, stdout, stderr)
	}
}

// TestShardFlagRejectedForFiles: -wal names a segmented log directory,
// so a regular file is a usage error (exit 1); and the log has one
// lane, so -shard is no flag at all (exit 1).
func TestShardFlagRejectedForFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	if err := os.WriteFile(path, []byte("not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runRecover(t, "-wal", path)
	if code != 1 || !strings.Contains(stderr, "not a segmented log directory") {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming the input", code, stderr)
	}
	code, _, stderr = runRecover(t, "-wal", path, "-shard", "0")
	if code != 1 || !strings.Contains(stderr, "-shard") {
		t.Fatalf("-shard: exit %d, stderr %q; want exit 1 refusing the flag", code, stderr)
	}
}

// TestSnapshotFileRefused: a snapshot-*.snap file in the log directory
// may stand in for segments that are gone, so recovery refuses the
// directory (exit 1, the file named) instead of returning an older
// state.
func TestSnapshotFileRefused(t *testing.T) {
	dir := t.TempDir()
	writeSegmentedLog(t, dir)
	snap := filepath.Join(dir, "snapshot-0000000000000004.snap")
	if err := os.WriteFile(snap, storage.EncodeSnapshot(4, map[string]storage.Value{"o1": 1}), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runRecover(t, "-wal", dir)
	if code != 1 || !strings.Contains(stderr, snap) || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 naming %s", code, stdout, stderr, snap)
	}
}
