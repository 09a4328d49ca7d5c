package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relser/internal/shard"
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

// writeSegmentedLog runs transactions through a 4-lane segmented WAL
// in dir and returns instance ids grouped by the lane they routed to.
func writeSegmentedLog(t *testing.T, dir string) map[int][]int64 {
	t.Helper()
	w, err := storage.OpenShardedWAL(dir, storage.SegmentedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := shard.NewRouter(4)
	byLane := map[int][]int64{}
	for id := int64(1); len(byLane[0]) < 3 || len(byLane[1]) < 3 || len(byLane[2]) < 3 || len(byLane[3]) < 3; id++ {
		lane := r.ShardID(id)
		if len(byLane[lane]) >= 3 {
			continue
		}
		byLane[lane] = append(byLane[lane], id)
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
	return byLane
}

// damageShard truncates (torn) or bit-flips (corrupt) the first
// segment of one lane in a segmented log directory.
func damageShard(t *testing.T, dir string, lane int, corrupt bool) {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("shard-%02d", lane), "seg-000000.wal")
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
	w, err := storage.OpenShardedWAL(dir, storage.SegmentedOptions{Shards: 1})
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
	damageShard(t, dir, 0, false)
	code, stdout, stderr := runRecover(t, "-wal", dir)
	if code != 3 {
		t.Fatalf("torn tail: exit %d, want 3 (stderr %q)", code, stderr)
	}
	var te tailError
	if err := json.Unmarshal([]byte(strings.TrimSpace(stderr)), &te); err != nil {
		t.Fatalf("stderr is not one JSON line: %v\n%q", err, stderr)
	}
	if te.Error != "torn-tail" || te.Shard != 0 || te.Detail == "" || te.Offset <= 0 || te.Records != 5 {
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
	damageShard(t, dir, 0, true)

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
	byLane := writeSegmentedLog(t, dir)
	code, stdout, stderr := runRecover(t, "-wal", dir)
	if code != 0 {
		t.Fatalf("clean segmented log: exit %d, stderr %q", code, stderr)
	}
	for _, ids := range byLane {
		for _, id := range ids {
			if !strings.Contains(stdout, fmt.Sprintf("o%d = %d", id, id)) {
				t.Fatalf("committed o%d missing from output:\n%s", id, stdout)
			}
		}
	}
}

// TestSegmentedTornReportsFirstShard: with lanes 3 and 1 both torn,
// the structured error must name shard 1 on every run — the policy is
// lowest index, not goroutine finish order.
func TestSegmentedTornReportsFirstShard(t *testing.T) {
	dir := t.TempDir()
	writeSegmentedLog(t, dir)
	damageShard(t, dir, 3, false)
	damageShard(t, dir, 1, false)
	for i := 0; i < 5; i++ {
		code, _, stderr := runRecover(t, "-wal", dir)
		if code != 3 {
			t.Fatalf("run %d: exit %d, want 3 (stderr %q)", i, code, stderr)
		}
		var te struct {
			Error string `json:"error"`
			Shard int    `json:"shard"`
		}
		if err := json.Unmarshal([]byte(strings.TrimSpace(stderr)), &te); err != nil {
			t.Fatalf("run %d: stderr is not one JSON line: %v\n%q", i, err, stderr)
		}
		if te.Error != "torn-tail" || te.Shard != 1 {
			t.Fatalf("run %d: got %+v, want torn-tail on shard 1", i, te)
		}
	}
}

func TestSegmentedCorruptWarnsThenFailsStrict(t *testing.T) {
	dir := t.TempDir()
	writeSegmentedLog(t, dir)
	damageShard(t, dir, 2, true)

	code, _, stderr := runRecover(t, "-wal", dir)
	if code != 0 {
		t.Fatalf("corrupt lane without -strict: exit %d (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "shard 2") {
		t.Fatalf("warning does not name shard 2: %q", stderr)
	}

	code, _, stderr = runRecover(t, "-wal", dir, "-strict")
	if code != 4 {
		t.Fatalf("corrupt lane with -strict: exit %d, want 4 (stderr %q)", code, stderr)
	}
	var te struct {
		Error string `json:"error"`
		Shard int    `json:"shard"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(stderr)), &te); err != nil || te.Error != "corrupt-tail" || te.Shard != 2 {
		t.Fatalf("want structured corrupt-tail on shard 2, got %q (err %v)", stderr, err)
	}
}

// TestSegmentedShardFilter: -shard restricts recovery to one lane, so
// damage elsewhere is invisible and damage there still fails.
func TestSegmentedShardFilter(t *testing.T) {
	dir := t.TempDir()
	byLane := writeSegmentedLog(t, dir)
	damageShard(t, dir, 1, false)

	code, stdout, stderr := runRecover(t, "-wal", dir, "-shard", "0")
	if code != 0 {
		t.Fatalf("-shard 0 with damage on shard 1: exit %d (stderr %q)", code, stderr)
	}
	id := byLane[0][0]
	if !strings.Contains(stdout, fmt.Sprintf("o%d = %d", id, id)) {
		t.Fatalf("lane 0 values missing:\n%s", stdout)
	}

	code, _, stderr = runRecover(t, "-wal", dir, "-shard", "1")
	if code != 3 {
		t.Fatalf("-shard 1 on torn lane: exit %d, want 3 (stderr %q)", code, stderr)
	}
	if code, _, _ := runRecover(t, "-wal", dir, "-shard", "9"); code != 1 {
		t.Fatalf("-shard 9 (absent): exit %d, want 1", code)
	}
}

// TestShardFlagRejectedForFiles: -wal names a segmented log directory;
// a regular file is a usage error (exit 1) with or without -shard.
func TestShardFlagRejectedForFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	if err := os.WriteFile(path, []byte("not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-wal", path}, {"-wal", path, "-shard", "0"}} {
		code, _, stderr := runRecover(t, args...)
		if code != 1 || !strings.Contains(stderr, "not a segmented log directory") {
			t.Fatalf("%v: exit %d, stderr %q; want exit 1 naming the input", args, code, stderr)
		}
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
