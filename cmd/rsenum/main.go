// rsenum enumerates the complete schedule space of an instance and
// prints the class census of Figure 5: how many interleavings fall in
// each of the paper's correctness classes, with witness schedules for
// every proper containment gap.
//
// Usage:
//
//	rsenum -fig 1          # census of the Figure 1 instance
//	rsenum -fig 4 -rc=false
//	rsenum -in instance.txt
//	rsenum -fig 1 -absolute  # same transactions, absolute atomicity
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"relser/internal/core"
	"relser/internal/enumerate"
	"relser/internal/metrics"
	"relser/internal/paperfig"
)

func main() {
	var (
		inPath   = flag.String("in", "", "instance file (defaults to stdin when no -fig)")
		figNum   = flag.Int("fig", 0, "use the paper's Figure N instance (1-4)")
		withRC   = flag.Bool("rc", true, "include the relatively-consistent column (exponential per schedule)")
		absolute = flag.Bool("absolute", false, "replace the specification with absolute atomicity")
		maxOps   = flag.Int("maxops", 12, "refuse instances with more operations (the space is factorial)")
		sample   = flag.Int("sample", 0, "classify this many random interleavings instead of the full space")
		seed     = flag.Int64("seed", 1, "seed for -sample")
	)
	flag.Parse()

	inst, err := paperfig.LoadInstance(*inPath, *figNum)
	if err != nil {
		fatal(err)
	}
	spec := inst.Spec
	if *absolute {
		spec = core.NewSpec(inst.Set)
	}
	if n := inst.Set.NumOps(); *sample == 0 && n > *maxOps {
		fatal(fmt.Errorf("instance has %d operations; census over %v interleavings refused (use -sample N or raise -maxops)",
			n, enumerate.Count(inst.Set)))
	}

	var c enumerate.Census
	if *sample > 0 {
		fmt.Printf("Interleavings: %v (sampling %d)\n\n", enumerate.Count(inst.Set), *sample)
		c = enumerate.SampleCensus(inst.Set, spec, *sample, *seed, *withRC)
	} else {
		fmt.Printf("Interleavings: %v\n\n", enumerate.Count(inst.Set))
		c = enumerate.TakeCensus(inst.Set, spec, *withRC)
	}
	tb := metrics.NewTable("Class census", "class", "schedules", "fraction")
	add := func(name string, n int) {
		tb.AddRow(name, n, float64(n)/float64(c.Total))
	}
	add("all interleavings", c.Total)
	add("serial", c.Serial)
	add("relatively atomic (Def. 1)", c.RelativelyAtomic)
	if *withRC {
		add("relatively consistent [FÖ89]", c.RelativelyConsistent)
	}
	add("relatively serial (Def. 2)", c.RelativelySerial)
	add("relatively serializable (Thm. 1)", c.RelativelySerializable)
	add("conflict serializable", c.ConflictSerializable)
	fmt.Print(tb)
	if c.ContainmentViolations > 0 {
		fatal(fmt.Errorf("%d Figure 5 containment violations — this is a bug", c.ContainmentViolations))
	}
	if len(c.Witnesses) > 0 {
		fmt.Println("\nWitnesses for proper gaps:")
		names := make([]string, 0, len(c.Witnesses))
		for name := range c.Witnesses {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-28s %s\n", name+":", c.Witnesses[name])
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rsenum:", err)
	os.Exit(1)
}
