// Command rsvet is the repository's static-analysis gate. It has two
// sides:
//
// Vet mode (default) runs the custom analyzers over Go packages:
//
//	rsvet ./...
//	rsvet -list
//	rsvet -run stripelock,registrydrift ./...
//
// Diagnostics print as file:line:col: message [analyzer]; the exit
// status is 1 when any diagnostic survives //rsvet:allow suppression.
//
// Spec mode statically checks relative-atomicity instance files
// (the internal/core text format):
//
//	rsvet -spec examples/specs/partitioned.txt
//	rsvet -spec -certify examples/specs/*.txt
//
// Each file's findings print with severities; exit status is 1 when
// any file has an error-severity finding, and with -certify also when
// any file fails static potential-RSG certification. Exit status 2
// means the tool itself failed (unparsable file, load error).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"relser/internal/analysis"
	"relser/internal/analysis/checker"
	"relser/internal/analysis/ctxflow"
	"relser/internal/analysis/detlint"
	"relser/internal/analysis/hookshape"
	"relser/internal/analysis/infer"
	"relser/internal/analysis/load"
	"relser/internal/analysis/registrydrift"
	"relser/internal/analysis/specbuild"
	"relser/internal/analysis/speclint"
	"relser/internal/analysis/stripelock"
	"relser/internal/core"
)

// all registers every analyzer, in reporting order. Each one earns its
// place with a planted bug no tier-1 test catches (or catches 10x
// later): the PR 25 mutation audit in CHANGES.md.
var all = []*analysis.Analyzer{
	ctxflow.Analyzer,
	detlint.Analyzer,
	hookshape.Analyzer,
	registrydrift.Analyzer,
	specbuild.Analyzer,
	stripelock.Analyzer,
}

func main() {
	var (
		specMode  = flag.Bool("spec", false, "check relative-atomicity instance files instead of Go packages")
		certify   = flag.Bool("certify", false, "with -spec: also fail files that cannot be statically certified safe")
		inferMode = flag.Bool("infer", false, "synthesize the finest certifiable spec from a workload package's core.T sites")
		run       = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		list      = flag.Bool("list", false, "list analyzers and exit")
		dir       = flag.String("C", ".", "directory to resolve package patterns in")
	)
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-14s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}
	if *specMode {
		os.Exit(specMain(flag.Args(), *certify))
	}
	if *inferMode {
		os.Exit(inferMain(*dir, flag.Args()))
	}
	os.Exit(vetMain(*dir, flag.Args(), *run))
}

// inferMain extracts transaction programs from the given packages and
// prints the synthesized spec in instance-file notation. Exit status 0
// means every package's spec earned the static full-chop certificate;
// 1 means at least one spec needs per-schedule certification (the
// blocking witnesses print to stderr); 2 means the tool failed.
func inferMain(dir string, patterns []string) int {
	if len(patterns) == 0 {
		fmt.Fprintln(os.Stderr, "rsvet -infer: no package patterns given")
		return 2
	}
	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsvet:", err)
		return 2
	}
	status := 0
	synthesized := 0
	for _, pkg := range pkgs {
		res, err := infer.Package(pkg)
		if err != nil {
			if strings.Contains(err.Error(), "no core.T construction sites") && len(pkgs) > 1 {
				continue // pattern matched non-workload packages too
			}
			fmt.Fprintln(os.Stderr, "rsvet:", err)
			return 2
		}
		synthesized++
		for _, note := range res.Notes {
			fmt.Fprintf(os.Stderr, "rsvet -infer: %s\n", note)
		}
		fmt.Print(res.InstanceText())
		if res.Report.Certified {
			fmt.Printf("# certified: static potential-RSG is acyclic; safe for every execution\n")
			continue
		}
		status = 1
		for _, f := range res.Report.Findings {
			fmt.Fprintf(os.Stderr, "rsvet -infer: %s: %s\n", pkg.PkgPath, f)
		}
	}
	if synthesized == 0 {
		fmt.Fprintln(os.Stderr, "rsvet -infer: no core.T construction sites in the matched packages")
		return 2
	}
	return status
}

// vetMain loads the requested packages and applies the analyzers.
func vetMain(dir string, patterns []string, run string) int {
	analyzers, err := selectAnalyzers(run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsvet:", err)
		return 2
	}
	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsvet:", err)
		return 2
	}
	findings, err := checker.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsvet:", err)
		return 2
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "rsvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// specMain parses each instance file and reports speclint findings.
func specMain(files []string, certify bool) int {
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "rsvet -spec: no instance files given")
		return 2
	}
	status := 0
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rsvet:", err)
			return 2
		}
		inst, err := core.ParseInstance(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rsvet: %s: %v\n", path, err)
			return 2
		}
		rep := speclint.CheckInstance(inst)
		for _, finding := range rep.Findings {
			fmt.Printf("%s: %s\n", path, finding)
		}
		if rep.Certified {
			fmt.Printf("%s: statically certified safe for every execution\n", path)
		}
		if rep.HasErrors() || (certify && !rep.Certified) {
			status = 1
		}
	}
	return status
}

// selectAnalyzers resolves the -run flag.
func selectAnalyzers(run string) ([]*analysis.Analyzer, error) {
	if run == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(run, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			known := make([]string, 0, len(byName))
			for n := range byName {
				known = append(known, n)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
