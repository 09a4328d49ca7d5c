package storage

import (
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkGroupCommit measures synchronous commit appends against a
// simulated fsync device: parallel producers, registered with Hold,
// share fsyncs, which is the whole point of group commit. The device
// asks for 20µs, but a sleep that short takes ~1 ms where the timer is
// coarse (MemBackend.SyncDelay), so ms/op is ~1 ms over the commits
// one fsync covers.
func BenchmarkGroupCommit(b *testing.B) {
	mem := NewMemBackend()
	mem.SyncDelay = 20 * time.Microsecond
	w, err := NewShardedWAL(mem, SegmentedOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w.Hold()
		defer w.Release()
		id := next.Add(1)
		for pb.Next() {
			if err := w.AppendSync(WALRecord{Kind: WALCommit, Instance: id}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkParallelRecovery replays a fixed 5,000-transaction history,
// rotated over 64 KiB segments, through the in-order recovery scan.
func BenchmarkParallelRecovery(b *testing.B) {
	mem := NewMemBackend()
	w, err := NewShardedWAL(mem, SegmentedOptions{SegmentBytes: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= 5000; i++ {
		logAsync(b, w, int64(i))
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	set, err := mem.SegmentSet()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := RecoverSegmented(set, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() || rep.Committed != 5000 {
			b.Fatalf("bad recovery: %s", rep)
		}
	}
}
