package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSegmentHeaderRoundTrip(t *testing.T) {
	want := SegmentHeader{Shard: 7, Index: 42, BaseGSN: 1 << 40}
	enc := encodeSegmentHeader(want)
	if len(enc) != SegmentHeaderSize {
		t.Fatalf("encoded header is %d bytes, want %d", len(enc), SegmentHeaderSize)
	}
	got, err := DecodeSegmentHeader(enc)
	if err != nil || got != want {
		t.Fatalf("round trip: got %+v err %v, want %+v", got, err, want)
	}
	// Every single-bit flip must be caught by magic, version or CRC.
	for i := 0; i < SegmentHeaderSize*8; i++ {
		mut := append([]byte(nil), enc...)
		mut[i/8] ^= 1 << (i % 8)
		if _, err := DecodeSegmentHeader(mut); err == nil {
			t.Fatalf("bit flip %d went undetected", i)
		}
	}
	if _, err := DecodeSegmentHeader(enc[:SegmentHeaderSize-1]); err == nil {
		t.Fatal("short header decoded")
	}
}

// segmentOf encodes lane 0's first segment holding recs at GSNs 1, 2, ...
func segmentOf(recs ...WALRecord) []byte {
	buf := encodeSegmentHeader(SegmentHeader{Shard: 0, Index: 0, BaseGSN: 0})
	for i, rec := range recs {
		buf = appendSegFrame(buf, uint64(i+1), rec)
	}
	return buf
}

// sampleSegment builds one lane's single segment with a known record
// mix and returns its bytes plus the records.
func sampleSegment(t testing.TB) ([]byte, []WALRecord) {
	t.Helper()
	recs := []WALRecord{
		{Kind: WALBegin, Instance: 1},
		{Kind: WALWrite, Instance: 1, Object: "x", Value: 10},
		{Kind: WALWrite, Instance: 1, Object: "a_longer_object_name", Value: -7},
		{Kind: WALBegin, Instance: 2},
		{Kind: WALWrite, Instance: 2, Object: "y", Value: 1 << 40},
		{Kind: WALCommit, Instance: 1},
		{Kind: WALAbort, Instance: 2},
	}
	return segmentOf(recs...), recs
}

// segFrameBoundaries returns every byte offset in seg that ends a
// whole unit (header or frame).
func segFrameBoundaries(seg []byte) map[int]bool {
	b := map[int]bool{0: true}
	if len(seg) < SegmentHeaderSize {
		return b
	}
	off := SegmentHeaderSize
	b[off] = true
	for off+segFrameHeaderSize <= len(seg) {
		size := int(uint32(seg[off]) | uint32(seg[off+1])<<8 | uint32(seg[off+2])<<16 | uint32(seg[off+3])<<24)
		off += segFrameHeaderSize + size
		if off > len(seg) {
			break
		}
		b[off] = true
	}
	return b
}

// TestScanSegmentTruncationNeverPhantom cuts a segment at every byte
// offset: each truncation must decode to a strict prefix, classified
// clean exactly at unit boundaries (past the header) and torn anywhere
// else.
func TestScanSegmentTruncationNeverPhantom(t *testing.T) {
	full, recs := sampleSegment(t)
	boundaries := segFrameBoundaries(full)
	for cut := 0; cut <= len(full); cut++ {
		_, got, rep, err := ScanSegment(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) > len(recs) {
			t.Fatalf("cut %d: decoded %d records from a log of %d", cut, len(got), len(recs))
		}
		for i := range got {
			if got[i].Rec != recs[i] {
				t.Fatalf("cut %d: phantom record at %d: %+v", cut, i, got[i].Rec)
			}
			if got[i].GSN != uint64(i+1) {
				t.Fatalf("cut %d: record %d carries GSN %d", cut, i, got[i].GSN)
			}
		}
		wantClean := boundaries[cut] && cut >= SegmentHeaderSize
		if wantClean && rep.Tail != TailClean {
			t.Fatalf("cut %d is a boundary but tail = %s (%s)", cut, rep.Tail, rep.Detail)
		}
		if !wantClean && rep.Tail == TailClean {
			t.Fatalf("cut %d is mid-unit but tail clean", cut)
		}
	}
}

// TestScanSegmentGSNMonotonicity: a frame whose GSN repeats or goes
// backwards is damage (replayed or duplicated frames), not data.
func TestScanSegmentGSNMonotonicity(t *testing.T) {
	for _, gsns := range [][]uint64{{5, 5}, {5, 3}, {0, 1}} {
		buf := encodeSegmentHeader(SegmentHeader{Shard: 0, Index: 0, BaseGSN: 0})
		for _, g := range gsns {
			buf = appendSegFrame(buf, g, WALRecord{Kind: WALBegin, Instance: int64(g)})
		}
		_, got, rep, err := ScanSegment(bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if gsns[0] == 0 {
			// First GSN must exceed BaseGSN (0 here).
			if len(got) != 0 || rep.Tail != TailCorrupt {
				t.Fatalf("gsns %v: got %d records, tail %s", gsns, len(got), rep.Tail)
			}
			continue
		}
		if len(got) != 1 || rep.Tail != TailCorrupt {
			t.Fatalf("gsns %v: got %d records, tail %s (%s)", gsns, len(got), rep.Tail, rep.Detail)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := map[string]Value{"x": 10, "y": -3, "a_longer_object_name": 1 << 50}
	enc := EncodeSnapshot(77, snap)
	gsn, got, err := DecodeSnapshot(enc)
	if err != nil || gsn != 77 {
		t.Fatalf("decode: gsn %d err %v", gsn, err)
	}
	if len(got) != len(snap) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(snap))
	}
	for k, v := range snap {
		if got[k] != v {
			t.Fatalf("entry %q: got %d want %d", k, got[k], v)
		}
	}
	if !bytes.Equal(enc, EncodeSnapshot(77, snap)) {
		t.Fatal("snapshot encoding is not deterministic")
	}
	for i := 0; i < len(enc)*8; i++ {
		mut := append([]byte(nil), enc...)
		mut[i/8] ^= 1 << (i % 8)
		if _, _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("bit flip %d went undetected", i)
		}
	}
	if _, _, err := DecodeSnapshot(nil); err == nil {
		t.Fatal("nil snapshot decoded")
	}
}

// TestScanSegmentBitflipNeverPhantom flips every bit: never a panic,
// never anything but a prefix.
func TestScanSegmentBitflipNeverPhantom(t *testing.T) {
	full, recs := sampleSegment(t)
	for i := 0; i < len(full)*8; i++ {
		mut := append([]byte(nil), full...)
		mut[i/8] ^= 1 << (i % 8)
		_, got, rep, err := ScanSegment(bytes.NewReader(mut))
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if len(got) > len(recs) {
			t.Fatalf("bit %d: decoded %d records from a log of %d", i, len(got), len(recs))
		}
		for j := range got {
			if got[j].Rec != recs[j] {
				t.Fatalf("bit %d: phantom record at %d", i, j)
			}
		}
		if len(got) < len(recs) && rep.Tail == TailClean {
			t.Fatalf("bit %d: lost records but tail clean", i)
		}
	}
}

func TestSegFileNames(t *testing.T) {
	if got := segFileName(7); got != "seg-000007.wal" {
		t.Fatalf("segFileName(7) = %q", got)
	}
	if got := snapFileName(255); got != "snapshot-00000000000000ff.snap" {
		t.Fatalf("snapFileName(255) = %q", got)
	}
}

// TestSnapshotErrorsNameTheFile: snapshot read/decode failures carry
// the path (rsreplay -from-snapshot diagnosability), ErrCorrupt stays
// reachable through errors.Is, and ReadWALDir records which damaged
// snapshot files it skipped instead of dropping them silently.
func TestSnapshotErrorsNameTheFile(t *testing.T) {
	dir := t.TempDir()
	good := EncodeSnapshot(7, map[string]Value{"x": 1})

	// Missing file.
	_, _, err := ReadSnapshotFile(filepath.Join(dir, "missing.snap"))
	var se *SnapshotError
	if !errors.As(err, &se) || !strings.Contains(err.Error(), "missing.snap") || se.Shard != -1 {
		t.Fatalf("missing file: %v", err)
	}

	// Corrupt file: path in the message, ErrCorrupt underneath.
	bad := filepath.Join(dir, "snapshot-0000000000000001.snap")
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xff
	if err := os.WriteFile(bad, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadSnapshotFile(bad)
	if !errors.As(err, &se) || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), bad) {
		t.Fatalf("corrupt file: %v", err)
	}

	// A valid file round-trips.
	ok := filepath.Join(dir, "snapshot-0000000000000007.snap")
	if err := os.WriteFile(ok, good, 0o644); err != nil {
		t.Fatal(err)
	}
	gsn, snap, err := ReadSnapshotFile(ok)
	if err != nil || gsn != 7 || snap["x"] != 1 {
		t.Fatalf("valid file: gsn=%d snap=%v err=%v", gsn, snap, err)
	}

	// LatestSnapshot skips the damaged newer-looking candidate... here
	// the corrupt file has the LOWER gsn, so the valid one wins; then
	// remove it and the corrupt one's error surfaces.
	path, gsn, _, err := LatestSnapshot(dir)
	if err != nil || path != ok || gsn != 7 {
		t.Fatalf("latest: path=%s gsn=%d err=%v", path, gsn, err)
	}
	if err := os.Remove(ok); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LatestSnapshot(dir); !errors.As(err, &se) || !strings.Contains(err.Error(), bad) {
		t.Fatalf("all-damaged latest: %v", err)
	}

	// Empty dir: os.ErrNotExist class.
	if _, _, _, err := LatestSnapshot(t.TempDir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty dir: %v", err)
	}

	// ReadWALDir still falls back past the damaged snapshot but records
	// it with its path.
	set, err := ReadWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if set.Snapshot != nil {
		t.Fatal("damaged snapshot decoded")
	}
	if len(set.DamagedSnapshots) != 1 || !strings.Contains(set.DamagedSnapshots[0].Error(), bad) {
		t.Fatalf("damaged snapshots: %v", set.DamagedSnapshots)
	}
}
