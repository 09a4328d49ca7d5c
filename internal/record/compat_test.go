package record_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"relser/internal/record"
)

// TestOldCorpusReplaysByteIdentical pins the backfill contract for
// recordings that predate bounded-memory certification: the committed
// format-1 artifacts have no rsg_retire manifest field, so replay forces
// retirement off and must still be byte-identical.
func TestOldCorpusReplaysByteIdentical(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "recordings", "*.rsrec"))
	if err != nil {
		t.Fatal(err)
	}
	old := 0
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if b[4] != 1 {
			continue // a later artifact; this test pins the format-1 path
		}
		old++
		rec, err := record.Decode(b)
		if err != nil {
			t.Fatalf("%s: decoding format-1 artifact: %v", path, err)
		}
		if rec.Manifest.RSGRetire != "" {
			t.Fatalf("%s: format-1 manifest unexpectedly carries rsg_retire=%q", path, rec.Manifest.RSGRetire)
		}
		if !rec.Manifest.Concurrent {
			rep, err := record.Replay(context.Background(), rec, record.ReplayOptions{})
			if err != nil {
				t.Fatalf("%s: replay: %v", path, err)
			}
			if !rep.Identical {
				t.Fatalf("%s: pre-retirement recording diverged with retirement forced off: %+v", path, rep.Divergences)
			}
		}
	}
	if old < 2 {
		t.Fatalf("found %d format-1 artifacts in the committed corpus, want the original two", old)
	}
}

// TestVersionWindow: fresh artifacts carry version 2; both in-window
// versions decode, versions outside the window are unreadable.
func TestVersionWindow(t *testing.T) {
	rr, err := record.Record(context.Background(), det("banking", 5), record.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	b := rr.Encode()
	if b[4] != 2 {
		t.Fatalf("fresh artifact stamped version %d, want 2", b[4])
	}
	// The frame format is unchanged since version 1, so a version-1
	// header must still decode.
	old := append([]byte(nil), b...)
	old[4] = 1
	if _, err := record.Decode(old); err != nil {
		t.Fatalf("version-1 header rejected: %v", err)
	}
	future := append([]byte(nil), b...)
	future[4] = 3
	if _, err := record.Decode(future); !errors.Is(err, record.ErrUnreadable) {
		t.Fatalf("version-3 header accepted: %v", err)
	}
	if n, clean := record.ScanFrames(future); n != 0 || clean {
		t.Fatalf("ScanFrames accepted version 3: frames=%d clean=%v", n, clean)
	}
}

// TestRetireOnRecordingRoundTrips: a recording made with retirement on
// carries rsg_retire=on and replays byte-identically with retirement
// on — the fast path and epoch machinery are verdict- and
// schedule-invisible.
func TestRetireOnRecordingRoundTrips(t *testing.T) {
	m := det("banking", 11)
	m.Protocol = "rsgt"
	m.RSGRetire = "on"
	rec := mustRecord(t, m)
	if rec.Manifest.RSGRetire != "on" {
		t.Fatalf("manifest lost rsg_retire: %q", rec.Manifest.RSGRetire)
	}
	rep, err := record.Replay(context.Background(), rec, record.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical {
		t.Fatalf("retirement-on recording diverged: %+v", rep.Divergences)
	}
}
