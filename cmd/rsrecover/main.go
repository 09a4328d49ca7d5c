// rsrecover rebuilds a store from the write-ahead log directory rssim
// -wal (or any storage.ShardedWAL user) writes and reports what
// survived: only fully committed transactions' effects are applied;
// aborted, unfinished and torn-tail records leave no trace.
//
// The log's one segment chain (waldir/shard-00) is scanned in order,
// so the output is a prefix of the committed history. Any -wal that is
// not a directory is a usage error, and a directory holding a
// snapshot-*.snap file or a shard-01 (or higher) lane is refused
// (exit 1): the segments such a file covered may be gone, and a log
// written with more than one lane is not read.
//
// A log that ends mid-record (torn tail — the shape of a crash during
// an append) is recovered up to the tear but reported as a structured
// JSON error on stderr with exit status 3, never silently truncated.
// With -strict any damaged tail — including a checksum mismatch on a
// complete record — fails with exit status 4. The JSON error names the
// damaged segment and the offset of the first bad frame in it.
//
// Usage:
//
//	rssim -workload banking -concurrent -shards 4 -wal waldir
//	rsrecover -wal waldir
//	rsrecover -wal waldir -strict
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
	// Segment is the damaged segment's position in the chain.
	Segment int    `json:"segment"`
	Offset  int64  `json:"offset"`
	Detail  string `json:"detail"`
	Records int    `json:"records"` // valid records recovered before the damage
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rsrecover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		walPath = fs.String("wal", "", "segmented write-ahead log directory to recover from (required)")
		values  = fs.Bool("values", true, "print the recovered object values")
		strict  = fs.Bool("strict", false, "fail (exit 4) on any damaged tail, including checksum mismatches")
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
	store, report, err := storage.RecoverSegmented(set, nil)
	if err != nil {
		fmt.Fprintln(stderr, "rsrecover:", err)
		return 1
	}
	fmt.Fprintln(stdout, report)
	printValues(stdout, store, *values)
	switch {
	case report.Tail.Tail == storage.TailTorn:
		emitTailError(stderr, "torn-tail", report)
		return 3
	case report.Tail.Tail == storage.TailCorrupt && *strict:
		emitTailError(stderr, "corrupt-tail", report)
		return 4
	case report.Tail.Tail == storage.TailCorrupt:
		fmt.Fprintf(stderr, "rsrecover: warning: corrupt tail in segment %d at offset %d: %s (recovery kept the valid prefix; rerun with -strict to fail on this)\n",
			report.TailSegment, report.Tail.Offset, report.Tail.Detail)
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

func emitTailError(stderr io.Writer, kind string, report *storage.SegmentedReport) {
	line, _ := json.Marshal(tailError{
		Error:   kind,
		Segment: report.TailSegment,
		Offset:  report.Tail.Offset,
		Detail:  report.Tail.Detail,
		Records: report.Records,
	})
	fmt.Fprintln(stderr, string(line))
}
