package record_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"relser/internal/record"
)

// TestFailedRunLeavesNoCommitter: a manifest whose run ends in a plain
// error — here every transaction is force-aborted past its restart
// budget — is not a recordable outcome, so Record returns the error
// early. The log it opened must be closed on that path too: each lane
// parks a committer goroutine until Close.
func TestFailedRunLeavesNoCommitter(t *testing.T) {
	m := det("banking", 1)
	m.MaxRestarts = 1
	m.FaultSpec, m.FaultSeed = "txn.abort:1", 1
	m.WALMode, m.WALShards = "segmented", 4
	before := runtime.NumGoroutine()
	if _, err := record.Record(context.Background(), m, record.Observers{}); err == nil {
		t.Fatal("a run that exhausts its restart budget recorded as an outcome")
	}
	// Close has returned by now, but a committer may still be between its
	// WaitGroup.Done and its exit.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the failed Record, %d after: lane committers leaked", before, after)
	}
}
