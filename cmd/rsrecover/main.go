// rsrecover rebuilds a store from the write-ahead log directory rssim
// -wal (or any storage.ShardedWAL user) writes and reports what
// survived: only fully committed transactions' effects are applied;
// aborted, unfinished and torn-tail records leave no trace.
//
// Every lane of the per-shard segmented log is scanned in parallel and
// a cross-shard cut reconciles damage, so the output is a consistent
// prefix of the committed history. -shard restricts the recovery to
// one lane. Any -wal that is not a directory is a usage error, and a
// directory holding a snapshot-*.snap file is refused (exit 1): the
// segments such a file covered may be gone.
//
// A log that ends mid-record (torn tail — the shape of a crash during
// an append) is recovered up to the tear but reported as a structured
// JSON error on stderr with exit status 3, never silently truncated.
// With -strict any damaged tail — including a checksum mismatch on a
// complete record — fails with exit status 4. For segmented logs the
// reported shard is deterministic: the lowest-indexed torn lane wins
// exit 3; otherwise the lowest-indexed corrupt lane wins exit 4 — never
// whichever recovery goroutine happened to finish first. The JSON error
// carries the failing shard.
//
// Usage:
//
//	rssim -workload banking -concurrent -shards 4 -wal waldir
//	rsrecover -wal waldir
//	rsrecover -wal waldir -strict
//	rsrecover -wal waldir -shard 2
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
	// Shard is the deterministic first failing lane; Segment is the
	// damaged segment's position in that lane's scan order.
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
		walPath  = fs.String("wal", "", "segmented write-ahead log directory to recover from (required)")
		values   = fs.Bool("values", true, "print the recovered object values")
		strict   = fs.Bool("strict", false, "fail (exit 4) on any damaged tail, including checksum mismatches")
		shardSel = fs.Int("shard", -1, "recover only this lane (-1 = all lanes with cross-shard reconciliation)")
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
	if !info.IsDir() {
		fmt.Fprintf(stderr, "rsrecover: %s: not a segmented log directory\n", *walPath)
		return 1
	}
	set, err := storage.ReadWALDir(*walPath)
	if err != nil {
		fmt.Fprintln(stderr, "rsrecover:", err)
		return 1
	}
	if *shardSel >= 0 {
		segs, ok := set.Shards[*shardSel]
		if !ok {
			fmt.Fprintf(stderr, "rsrecover: no shard %d in %s\n", *shardSel, *walPath)
			return 1
		}
		set.Shards = map[int][][]byte{*shardSel: segs}
	}
	store, report, err := storage.RecoverSegmented(set, nil)
	if err != nil {
		fmt.Fprintln(stderr, "rsrecover:", err)
		return 1
	}
	fmt.Fprintln(stdout, report)
	printValues(stdout, store, *values)
	// Deterministic damage policy: the lowest-indexed torn lane decides
	// exit 3; failing that, the lowest-indexed corrupt lane decides
	// exit 4 under -strict (warning otherwise).
	if sh, ok := report.FirstDamagedKind(storage.TailTorn); ok {
		emitTailError(stderr, "torn-tail", sh.Shard, sh.TailSegment, sh.Tail, report.Records)
		return 3
	}
	if sh, ok := report.FirstDamagedKind(storage.TailCorrupt); ok {
		if *strict {
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
