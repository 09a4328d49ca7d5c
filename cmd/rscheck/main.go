// rscheck classifies schedules under relative atomicity specifications.
//
// It reads an instance file (see relser.ParseInstance for the format)
// or one of the paper's built-in figures, classifies every named
// schedule into the paper's class hierarchy, explains violations, and
// can emit the relative serialization graph as Graphviz DOT.
//
// Usage:
//
//	rscheck -fig 1                      # classify Figure 1's schedules
//	rscheck -in instance.txt            # classify a file's schedules
//	rscheck -fig 3 -dot S2 > rsg.dot    # RSG of Figure 3's S2 in DOT
//	rscheck -fig 4 -rc                  # include the (exponential)
//	                                    # relatively-consistent test
package main

import (
	"flag"
	"fmt"
	"os"

	"relser/internal/advisor"
	"relser/internal/consistent"
	"relser/internal/core"
	"relser/internal/enumerate"
	"relser/internal/metrics"
	"relser/internal/paperfig"
)

func main() {
	var (
		inPath  = flag.String("in", "", "instance file (defaults to stdin when no -fig)")
		figNum  = flag.Int("fig", 0, "use the paper's Figure N instance (1-4)")
		withRC  = flag.Bool("rc", false, "also run the exponential relatively-consistent test")
		dotName = flag.String("dot", "", "emit the RSG of the named schedule as DOT and exit")
		explain = flag.Bool("explain", true, "explain class violations")
		witness = flag.Bool("witness", false, "print a relatively serial witness for relatively serializable schedules")
		advise  = flag.Bool("advise", false, "for rejected schedules, suggest the unit splits that would admit them")
	)
	flag.Parse()

	inst, err := paperfig.LoadInstance(*inPath, *figNum)
	if err != nil {
		fatal(err)
	}
	if *dotName != "" {
		s, ok := inst.Schedules[*dotName]
		if !ok {
			fatal(fmt.Errorf("no schedule named %q (have %v)", *dotName, inst.Names))
		}
		fmt.Print(core.BuildRSG(s, inst.Spec).Dot(*dotName))
		return
	}

	fmt.Println("Transactions:")
	fmt.Println(indent(inst.Set.String()))
	fmt.Println("\nRelative atomicity:")
	fmt.Println(indent(inst.Spec.String()))
	fmt.Println()

	cols := []string{"schedule", "serial", "rel-atomic", "rel-serial", "rel-serializable", "conflict-ser"}
	if *withRC {
		cols = append(cols, "rel-consistent")
	}
	tb := metrics.NewTable("Classification", cols...)
	type explainRow struct{ name, text string }
	var explains []explainRow
	for _, name := range inst.Names {
		s := inst.Schedules[name]
		c := enumerate.Classify(s, inst.Spec, false)
		row := []any{name, yn(c.Serial), yn(c.RelativelyAtomic), yn(c.RelativelySerial),
			yn(c.RelativelySerializable), yn(c.ConflictSerializable)}
		if *withRC {
			res := consistent.IsRelativelyConsistent(s, inst.Spec)
			row = append(row, yn(res.Consistent))
		}
		tb.AddRow(row...)
		if *explain {
			if ok, v := core.IsRelativelySerial(s, inst.Spec); !ok {
				explains = append(explains, explainRow{name, v.Error()})
			}
		}
		if *witness && c.RelativelySerializable {
			w, err := core.BuildRSG(s, inst.Spec).Witness()
			if err == nil {
				explains = append(explains, explainRow{name, "relatively serial witness: " + w.String()})
			}
		}
		if *advise && !c.RelativelySerializable {
			a := advisor.Advise(s, inst.Spec)
			if a.Possible {
				text := "admissible with the following extra unit boundaries:"
				for _, sug := range a.Suggestions {
					text += "\n    " + sug.String()
				}
				explains = append(explains, explainRow{name, text})
			}
		}
	}
	fmt.Print(tb)
	for _, e := range explains {
		fmt.Printf("\n%s: %s\n", e.name, e.text)
	}
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func indent(s string) string {
	out := "  "
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += "  "
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rscheck:", err)
	os.Exit(1)
}
