package record_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"relser/internal/record"
)

// freshArtifact returns the bytes of a recording made by this build.
func freshArtifact(t *testing.T) []byte {
	t.Helper()
	rr, err := record.Record(context.Background(), det("banking", 5), record.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	return rr.Encode()
}

// TestOldCorpusReplaysByteIdentical: every artifact committed under
// examples/recordings, recorded by an earlier build, carries the header
// version this build writes and replays byte-identically on every
// facet — WAL bytes included wherever the run had a log.
func TestOldCorpusReplaysByteIdentical(t *testing.T) {
	version := freshArtifact(t)[4]
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "recordings", "*.rsrec"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed recordings: %v", err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if b[4] != version {
			t.Fatalf("%s: header version %d, this build writes %d", path, b[4], version)
		}
		rec, err := record.Decode(b)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rep, err := record.Replay(context.Background(), rec, record.ReplayOptions{})
		if err != nil {
			t.Fatalf("%s: replay: %v", path, err)
		}
		if !rep.Identical || !rep.Deterministic {
			t.Fatalf("%s: deterministic=%v, divergences %+v", path, rep.Deterministic, rep.Divergences)
		}
		if rep.Recorded.WALHash != rep.Replayed.WALHash || rep.Recorded.WALLen != rep.Replayed.WALLen {
			t.Fatalf("%s: WAL bytes recorded %s/%d, replayed %s/%d", path,
				rep.Recorded.WALHash, rep.Recorded.WALLen, rep.Replayed.WALHash, rep.Replayed.WALLen)
		}
		if rec.Manifest.WALMode != "" && (rep.Recorded.WALHash == "" || rep.Recorded.WALLen == 0) {
			t.Fatalf("%s: a %s log recorded no WAL bytes", path, rec.Manifest.WALMode)
		}
	}
}

// TestVersionWindow: fresh artifacts carry version 2, the only version
// that decodes; a header of version 1 or 3 is unreadable.
func TestVersionWindow(t *testing.T) {
	b := freshArtifact(t)
	if b[4] != 2 {
		t.Fatalf("fresh artifact stamped version %d, want 2", b[4])
	}
	for _, v := range []byte{1, 3} {
		other := append([]byte(nil), b...)
		other[4] = v
		if _, err := record.Decode(other); !errors.Is(err, record.ErrUnreadable) {
			t.Fatalf("version-%d header decoded: %v", v, err)
		}
	}
}
