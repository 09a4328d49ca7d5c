// rschop analyses transaction choppings [SSV92] and bridges them into
// relative atomicity: it reads a transaction set (instance file or a
// built-in paper figure), chops it, builds the SC-graph, decides
// correctness, and can emit the graph as Graphviz DOT or the induced
// relative atomicity specification as an instance file.
//
// Usage:
//
//	rschop -in instance.txt -piece 2        # uniform 2-op pieces
//	rschop -fig 1 -piece 2 -dot > sc.dot
//	rschop -in instance.txt -piece 2 -spec  # print the induced spec
package main

import (
	"flag"
	"fmt"
	"os"

	"relser/internal/chopping"
	"relser/internal/core"
	"relser/internal/metrics"
	"relser/internal/paperfig"
)

func main() {
	var (
		inPath = flag.String("in", "", "instance file (defaults to stdin when no -fig)")
		figNum = flag.Int("fig", 0, "use the paper's Figure N transactions (1-4)")
		piece  = flag.Int("piece", 2, "uniform piece size in operations")
		dot    = flag.Bool("dot", false, "emit the SC-graph as DOT and exit")
		spec   = flag.Bool("spec", false, "emit the induced relative atomicity spec as an instance file")
	)
	flag.Parse()

	inst, err := paperfig.LoadInstance(*inPath, *figNum)
	if err != nil {
		fatal(err)
	}
	c, err := chopping.Uniform(inst.Set, *piece)
	if err != nil {
		fatal(err)
	}
	g := chopping.BuildSCGraph(c)
	if *dot {
		fmt.Print(g.Dot(fmt.Sprintf("chopping-%d", *piece)))
		return
	}
	if *spec {
		sp, err := c.ToSpec()
		if err != nil {
			fatal(err)
		}
		out := &core.Instance{Set: inst.Set, Spec: sp, Schedules: map[string]*core.Schedule{}}
		fmt.Print(core.FormatInstance(out))
		return
	}

	tb := metrics.NewTable("Chopping analysis", "transaction", "pieces")
	for _, t := range inst.Set.Txns() {
		tb.AddRow(fmt.Sprintf("T%d", int(t.ID)), len(c.PiecesOf(t.ID)))
	}
	fmt.Print(tb)
	fmt.Printf("\nSC-graph: %d pieces, %d edges\n", len(c.Pieces()), g.NumEdges())
	if off := g.OffendingComponent(); off != nil {
		fmt.Println("verdict: INCORRECT chopping — SC-cycle through:")
		for _, p := range off {
			fmt.Printf("  %s\n", p)
		}
		os.Exit(2)
	}
	fmt.Println("verdict: correct chopping — piece-atomic executions under strict 2PL stay serializable [SSV92]")
	fmt.Println("(use -spec to emit the equivalent relative atomicity specification)")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rschop:", err)
	os.Exit(1)
}
