package relser_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMakeFuzzListsEveryFuzzTarget fails when a Fuzz function in a
// _test.go file is missing from the Makefile's fuzz recipe, or the
// recipe names a target that no longer exists in that package.
func TestMakeFuzzListsEveryFuzzTarget(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	// The recipe is the tab-indented lines after the "fuzz:" rule.
	recipe := map[string]bool{}
	line := regexp.MustCompile(`-fuzz=(\w+)\s.*\s\./(\S+?)/?$`)
	inFuzz := false
	for _, l := range strings.Split(string(makefile), "\n") {
		switch {
		case strings.HasPrefix(l, "fuzz:"):
			inFuzz = true
		case inFuzz && strings.HasPrefix(l, "\t"):
			if m := line.FindStringSubmatch(l); m != nil {
				recipe[m[2]+"."+m[1]] = true
			}
		default:
			inFuzz = false
		}
	}

	targets := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			targets[filepath.ToSlash(filepath.Dir(path))+"."+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("found no Fuzz functions in the tree")
	}

	var missing, stale []string
	for k := range targets {
		if !recipe[k] {
			missing = append(missing, k)
		}
	}
	for k := range recipe {
		if !targets[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, k := range missing {
		t.Errorf("%s is not in the Makefile's fuzz recipe", k)
	}
	for _, k := range stale {
		t.Errorf("the Makefile's fuzz recipe names %s, which no _test.go file declares", k)
	}
}
