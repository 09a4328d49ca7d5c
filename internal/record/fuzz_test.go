package record_test

import (
	"context"
	"testing"

	"relser/internal/record"
	"relser/internal/workload"
)

func sampleArtifact(f *testing.F) []byte {
	f.Helper()
	m := record.Manifest{
		Workload:    workload.BuildParams{Name: "banking", Seed: 1},
		Protocol:    "s2pl",
		Seed:        1,
		MPL:         8,
		MaxRestarts: 100000,
		FaultSpec:   "txn.abort:0.1",
		FaultSeed:   1,
	}
	rr, err := record.Record(context.Background(), m, record.Observers{})
	if err != nil {
		f.Fatal(err)
	}
	return rr.Encode()
}

// TestArtifactPrefixSafety is the torn-tail guarantee, exhaustively:
// cutting a valid artifact at EVERY byte offset yields a frame stream
// that is a strict prefix of the original's, and scans as clean only
// at true frame boundaries. A torn .rsrec truncates, it never invents
// or alters a frame — the same property the WAL and segment formats
// hold.
func TestArtifactPrefixSafety(t *testing.T) {
	var full []byte
	{
		// Reuse the fuzz corpus builder via a throwaway F-less path.
		rr, err := record.Record(context.Background(), record.Manifest{
			Workload:    workload.BuildParams{Name: "banking", Seed: 1},
			Protocol:    "s2pl",
			Seed:        1,
			MPL:         8,
			MaxRestarts: 100000,
			FaultSpec:   "txn.abort:0.1",
			FaultSeed:   1,
		}, record.Observers{})
		if err != nil {
			t.Fatal(err)
		}
		full = rr.Encode()
	}
	totalFrames, clean := record.ScanFrames(full)
	if !clean || totalFrames < 3 {
		t.Fatalf("full artifact: frames=%d clean=%v", totalFrames, clean)
	}
	boundaries := map[int]bool{}
	prev := 0
	for cut := 0; cut <= len(full); cut++ {
		frames, ok := record.ScanFrames(full[:cut])
		if frames > totalFrames {
			t.Fatalf("cut %d: %d frames exceeds original %d", cut, frames, totalFrames)
		}
		if frames < prev {
			t.Fatalf("cut %d: frame count regressed %d -> %d", cut, prev, frames)
		}
		prev = frames
		if ok {
			boundaries[cut] = true
			if frames == totalFrames && cut != len(full) {
				t.Fatalf("cut %d scans clean with all %d frames before the end", cut, frames)
			}
		}
	}
	if !boundaries[len(full)] {
		t.Fatal("full length does not scan clean")
	}
	// Clean points are exactly the frame boundaries: one per frame plus
	// the header.
	if len(boundaries) != totalFrames+1 {
		t.Fatalf("%d clean cut points for %d frames (want frames+1)", len(boundaries), totalFrames)
	}
}

// FuzzRecordDecode: arbitrary bytes never panic the decoder; whatever
// Decode accepts must re-encode losslessly through a fresh scan; and
// ScanFrames stays internally consistent (mirrors FuzzSegmentDecode).
func FuzzRecordDecode(f *testing.F) {
	full := sampleArtifact(f)
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(full[:8])
	f.Add([]byte{})
	f.Add([]byte("RSRC\x02\x00\x00\x00"))
	f.Add([]byte("RSRC\x02\x00\x00\x00\xff\xff\xff\x7f\x00\x00\x00\x00"))
	mut := append([]byte(nil), full...)
	mut[12] ^= 0x40
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, clean := record.ScanFrames(data)
		if frames < 0 {
			t.Fatalf("negative frame count %d", frames)
		}
		rec, err := record.Decode(data)
		if err != nil {
			if rec != nil {
				t.Fatal("Decode returned a recording alongside an error")
			}
			return
		}
		// A decodable artifact must scan clean, with one frame per
		// section.
		if !clean {
			t.Fatal("Decode accepted an artifact ScanFrames calls damaged")
		}
		want := 2 + len(rec.Stages) + 1
		if frames != want {
			t.Fatalf("decoded %d stages but scanned %d frames (want %d)", len(rec.Stages), frames, want)
		}
	})
}
