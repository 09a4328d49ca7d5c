// rsrecover rebuilds a store from a write-ahead log produced by rssim
// (or any storage.ShardedWAL user) and reports what survived: only
// fully committed transactions' effects are applied; aborted,
// unfinished and torn-tail records leave no trace.
//
// Given a directory, it recovers the log rssim -wal writes — the
// per-shard segmented log: every lane is scanned in parallel and a
// cross-shard cut reconciles damage, so the output is a consistent
// prefix of the committed history. -shard restricts the recovery to
// one lane. Given a file, it runs the read-only decoder of the
// single-file format older builds wrote; nothing writes that format
// any more.
//
// A log that ends mid-record (torn tail — the shape of a crash during
// an append) is recovered up to the tear but reported as a structured
// JSON error on stderr with exit status 3, never silently truncated.
// With -strict any damaged tail — including a checksum mismatch on a
// complete record — fails with exit status 4. For segmented logs the
// reported shard is deterministic: the lowest-indexed torn lane wins
// exit 3; otherwise the lowest-indexed corrupt lane wins exit 4 — never
// whichever recovery goroutine happened to finish first. The JSON error
// carries the failing shard ("shard": -1 for single-file logs).
//
// Usage:
//
//	rssim -workload banking -concurrent -shards 4 -wal waldir
//	rsrecover -wal waldir
//	rsrecover -wal waldir -strict
//	rsrecover -wal waldir -shard 2
//	rsrecover -wal old-run.wal
//
// Exit status: 0 clean (or corrupt tail without -strict, after a
// warning), 1 usage or I/O error, 3 torn tail, 4 -strict violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"relser/internal/storage"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// tailError is the structured form of a damaged-tail diagnosis,
// emitted as a single JSON line on stderr for machine consumption.
type tailError struct {
	Error string `json:"error"` // "torn-tail" | "corrupt-tail"
	// Shard is the deterministic first failing lane of a segmented log
	// (-1 for single-file logs); Segment is the damaged segment's
	// position in that lane's scan order.
	Shard   int    `json:"shard"`
	Segment int    `json:"segment"`
	Offset  int64  `json:"offset"`
	Detail  string `json:"detail"`
	Records int    `json:"records"` // valid records recovered before the damage
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rsrecover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		walPath  = fs.String("wal", "", "write-ahead log to recover from: a segmented log directory, or a single-file log an older build wrote (required)")
		values   = fs.Bool("values", true, "print the recovered object values")
		strict   = fs.Bool("strict", false, "fail (exit 4) on any damaged tail, including checksum mismatches")
		shardSel = fs.Int("shard", -1, "segmented logs: recover only this lane (-1 = all lanes with cross-shard reconciliation)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *walPath == "" {
		fmt.Fprintln(stderr, "rsrecover: -wal is required")
		return 1
	}
	info, err := os.Stat(*walPath)
	if err != nil {
		fmt.Fprintln(stderr, "rsrecover:", err)
		return 1
	}
	if info.IsDir() {
		return runSegmented(*walPath, *shardSel, *values, *strict, stdout, stderr)
	}
	if *shardSel >= 0 {
		fmt.Fprintln(stderr, "rsrecover: -shard applies only to segmented log directories")
		return 1
	}
	f, err := os.Open(*walPath)
	if err != nil {
		fmt.Fprintln(stderr, "rsrecover:", err)
		return 1
	}
	defer f.Close()
	store, report, err := storage.Recover(f, nil)
	if err != nil {
		fmt.Fprintln(stderr, "rsrecover:", err)
		return 1
	}
	fmt.Fprintln(stdout, report)
	printValues(stdout, store, *values)
	switch report.Tail.Tail {
	case storage.TailTorn:
		emitTailError(stderr, "torn-tail", -1, 0, report.Tail, report.Records)
		return 3
	case storage.TailCorrupt:
		if *strict {
			emitTailError(stderr, "corrupt-tail", -1, 0, report.Tail, report.Records)
			return 4
		}
		fmt.Fprintf(stderr, "rsrecover: warning: corrupt tail at offset %d: %s (recovery kept the valid prefix; rerun with -strict to fail on this)\n",
			report.Tail.Offset, report.Tail.Detail)
	}
	return 0
}

// runSegmented recovers a per-shard segmented log directory.
func runSegmented(dir string, shardSel int, values, strict bool, stdout, stderr io.Writer) int {
	set, err := storage.ReadWALDir(dir)
	if err != nil {
		fmt.Fprintln(stderr, "rsrecover:", err)
		return 1
	}
	for _, derr := range set.DamagedSnapshots {
		fmt.Fprintf(stderr, "rsrecover: warning: skipping damaged snapshot: %v\n", derr)
	}
	if shardSel >= 0 {
		segs, ok := set.Shards[shardSel]
		if !ok {
			fmt.Fprintf(stderr, "rsrecover: no shard %d in %s\n", shardSel, dir)
			return 1
		}
		set.Shards = map[int][][]byte{shardSel: segs}
	}
	store, report, err := storage.RecoverSegmented(set, nil)
	if err != nil {
		fmt.Fprintln(stderr, "rsrecover:", err)
		return 1
	}
	fmt.Fprintln(stdout, report)
	printValues(stdout, store, values)
	// Deterministic damage policy: the lowest-indexed torn lane decides
	// exit 3; failing that, the lowest-indexed corrupt lane decides
	// exit 4 under -strict (warning otherwise).
	if sh, ok := report.FirstDamagedKind(storage.TailTorn); ok {
		emitTailError(stderr, "torn-tail", sh.Shard, sh.TailSegment, sh.Tail, report.Records)
		return 3
	}
	if sh, ok := report.FirstDamagedKind(storage.TailCorrupt); ok {
		if strict {
			emitTailError(stderr, "corrupt-tail", sh.Shard, sh.TailSegment, sh.Tail, report.Records)
			return 4
		}
		fmt.Fprintf(stderr, "rsrecover: warning: corrupt tail on shard %d segment %d at offset %d: %s (recovery kept the valid prefix; rerun with -strict to fail on this)\n",
			sh.Shard, sh.TailSegment, sh.Tail.Offset, sh.Tail.Detail)
	}
	return 0
}

func printValues(stdout io.Writer, store *storage.Store, on bool) {
	if !on {
		return
	}
	snap := store.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "  %s = %d\n", name, snap[name])
	}
}

func emitTailError(stderr io.Writer, kind string, shard, segment int, tail storage.ScanReport, records int) {
	line, _ := json.Marshal(tailError{
		Error:   kind,
		Shard:   shard,
		Segment: segment,
		Offset:  tail.Offset,
		Detail:  tail.Detail,
		Records: records,
	})
	fmt.Fprintln(stderr, string(line))
}
