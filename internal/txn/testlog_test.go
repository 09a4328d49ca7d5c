package txn_test

import (
	"testing"

	"relser/internal/storage"
)

// testLog is the durability sink the txn tests attach: a one-lane
// segmented log held in memory, closed when the test ends.
type testLog struct {
	*storage.ShardedWAL
	mem *storage.MemBackend
}

func newTestLog(t testing.TB) *testLog {
	t.Helper()
	mem := storage.NewMemBackend()
	wal, err := storage.NewShardedWAL(mem, storage.SegmentedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() }) //nolint:errcheck // idempotent; tests that read the log have closed it already
	return &testLog{wal, mem}
}

// bytes closes the log and returns what reached the device: the lane's
// single segment (test workloads stay far below the rotation
// threshold). A latched injected crash is an expected terminal state,
// not a failure.
func (l *testLog) bytes(t testing.TB) []byte {
	t.Helper()
	l.Close() //nolint:errcheck // see above
	set, err := l.mem.SegmentSet()
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Shards) != 1 || len(set.Shards[0]) != 1 {
		t.Fatalf("test log is not one lane of one segment: %d lanes, %d segments", len(set.Shards), len(set.Shards[0]))
	}
	return set.Shards[0][0]
}

// recoverLog rebuilds a store from a crash image of the test log: seg
// is what testLog.bytes returned, or any prefix of it.
func recoverLog(t testing.TB, seg []byte, initial map[string]storage.Value) (*storage.Store, *storage.SegmentedReport) {
	t.Helper()
	st, rep, err := storage.RecoverSegmented(&storage.SegmentSet{Shards: map[int][][]byte{0: {seg}}}, initial)
	if err != nil {
		t.Fatal(err)
	}
	return st, rep
}
