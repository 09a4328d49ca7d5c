package record_test

import (
	"context"
	"errors"
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
// cutting a valid artifact at EVERY byte offset, frame boundaries
// included, yields an artifact Decode refuses as unreadable. A torn
// .rsrec is never mistaken for a shorter recording.
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
	if _, err := record.Decode(full); err != nil {
		t.Fatalf("full artifact: %v", err)
	}
	for cut := 0; cut < len(full); cut++ {
		rec, err := record.Decode(full[:cut])
		if !errors.Is(err, record.ErrUnreadable) || rec != nil {
			t.Fatalf("cut %d of %d: Decode = %v, %v; want unreadable", cut, len(full), rec != nil, err)
		}
	}
}

// FuzzRecordDecode: arbitrary bytes never panic the decoder, and
// whatever Decode accepts has no decodable strict prefix (mirrors
// FuzzSegmentDecode).
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
		rec, err := record.Decode(data)
		if err != nil {
			if rec != nil {
				t.Fatal("Decode returned a recording alongside an error")
			}
			return
		}
		if _, err := record.Decode(data[:len(data)-1]); err == nil {
			t.Fatal("Decode accepted an artifact and its one-byte-shorter prefix")
		}
	})
}
