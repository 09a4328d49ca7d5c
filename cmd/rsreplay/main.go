// rsreplay re-executes a .rsrec recording (rssim -record, rsbench
// -record, or an E16 chaos auto-save) through the engine pipeline and
// compares the outcome against the recorded baseline.
//
// With no overrides the replay is byte-identical mode: a deterministic
// recording must reproduce the same certification verdict, counters,
// fault fingerprint, WAL bytes, stage log and final store, and any
// divergence is a bug (exit 3). Concurrent-driver recordings compare
// schedule-independent facets only (outcome class, verdict,
// invariant) — the goroutine schedule is not reproducible. Only
// artifacts of the format this build writes decode.
//
// Any override (-protocol, -shards, -spec absolute, -faults, ...)
// switches to backfill mode: the same recorded traffic re-runs under
// the altered configuration and the structured divergence report IS
// the deliverable — verdict flips, per-object state diffs, abort-class
// changes. The exit code still reports 3 when the outcomes differ, so
// scripts can distinguish "serializability would have behaved
// identically" (0) from "the spec change shows up" (3).
//
// Faults replay by default: the recording carries the fault spec and
// seed, and the injector's firing schedule is a pure function of both,
// so -faults-from-recording (the default) re-injects the recorded
// incident — including the wedge that produced the artifact. -faults
// off re-runs the traffic fault-free; -faults '<spec>' substitutes a
// new schedule.
//
// Usage:
//
//	rssim -workload banking -record run.rsrec
//	rsreplay -in run.rsrec                     # byte-identical check
//	rsreplay -in run.rsrec -shards 16          # yesterday's wedge at 16 shards
//	rsreplay -in run.rsrec -spec absolute      # backfill under serializability
//	rsreplay -in run.rsrec -faults off
//
// The comparison report is one JSON document on stdout. Errors are a
// single JSON line on stderr carrying the failing file, matching
// rsrecover's convention.
//
// Exit status: 0 identical, 1 usage or configuration error, 3
// divergence, 4 unreadable artifact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"relser/internal/record"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// replayError is the structured form of a replay failure, emitted as a
// single JSON line on stderr for machine consumption (rsrecover's
// tailError shape).
type replayError struct {
	Error  string `json:"error"` // "unreadable-artifact" | "replay-failed"
	Path   string `json:"path,omitempty"`
	Shard  int    `json:"shard"` // always -1: a recording belongs to no lane
	Detail string `json:"detail"`
}

func emitError(stderr io.Writer, kind, path, detail string) {
	line, _ := json.Marshal(replayError{Error: kind, Path: path, Shard: -1, Detail: detail})
	fmt.Fprintln(stderr, string(line))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rsreplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in        = fs.String("in", "", ".rsrec recording to replay (required)")
		protocol  = fs.String("protocol", "", "override the protocol (empty = recorded)")
		shards    = fs.Int("shards", 0, "override the shard count (0 = recorded)")
		spec      = fs.String("spec", "", "atomicity spec override: recorded (default) or absolute")
		faults    = fs.String("faults", "", "fault override: recorded (default), off, or a point:rate[:duration] spec")
		fromRec   = fs.Bool("faults-from-recording", false, "re-inject the recorded fault schedule (the default; conflicts with -faults)")
		faultSeed = fs.Int64("fault-seed", 0, "override the injector seed (0 = recorded)")
		watchdog  = fs.Duration("watchdog", 0, "override the concurrent driver's stall watchdog (0 = recorded)")
		timeout   = fs.Duration("timeout", 0, "bound the replay's wall time (0 = none)")
		compact   = fs.Bool("compact", false, "emit the report as one JSON line instead of indented")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *in == "" {
		fmt.Fprintln(stderr, "rsreplay: -in is required")
		return 1
	}
	if *fromRec && *faults != "" && *faults != "recorded" {
		fmt.Fprintln(stderr, "rsreplay: -faults-from-recording conflicts with -faults", *faults)
		return 1
	}
	if *fromRec {
		*faults = "recorded"
	}

	rec, err := record.ReadFile(*in)
	if err != nil {
		emitError(stderr, "unreadable-artifact", *in, err.Error())
		return 4
	}

	opts := record.ReplayOptions{
		Protocol:  *protocol,
		Shards:    *shards,
		Spec:      *spec,
		Faults:    *faults,
		FaultSeed: *faultSeed,
		Watchdog:  *watchdog,
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rep, err := record.Replay(ctx, rec, opts)
	if err != nil {
		emitError(stderr, "replay-failed", *in, err.Error())
		return 1
	}

	enc := json.NewEncoder(stdout)
	if !*compact {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "rsreplay:", err)
		return 1
	}
	if !rep.Identical {
		return 3
	}
	return 0
}
