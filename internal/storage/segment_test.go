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
		if _, _, err := DecodeSnapshot(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip %d: err %v, want ErrCorrupt", i, err)
		}
	}
	if _, _, err := DecodeSnapshot(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("nil snapshot: err %v, want ErrCorrupt", err)
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
}

// TestSnapshotErrorsNameTheFile: ReadWALDir refuses a log directory
// holding a checkpoint snapshot file, valid or damaged, and names the
// file. The segments it covered may be gone, so recovering without it
// would silently return an older state.
func TestSnapshotErrorsNameTheFile(t *testing.T) {
	for _, data := range [][]byte{EncodeSnapshot(7, map[string]Value{"x": 1}), []byte("RSNPgarbage")} {
		dir := t.TempDir()
		w, err := OpenShardedWAL(dir, SegmentedOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		logTxn(t, w, 1, "x", 2)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadWALDir(dir); err != nil {
			t.Fatalf("log without a snapshot file: %v", err)
		}
		snap := filepath.Join(dir, "snapshot-0000000000000007.snap")
		if err := os.WriteFile(snap, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if set, err := ReadWALDir(dir); err == nil || set != nil || !strings.Contains(err.Error(), snap) {
			t.Fatalf("ReadWALDir with %s: set %v, err %v; want an error naming the file", snap, set, err)
		}
	}
}
