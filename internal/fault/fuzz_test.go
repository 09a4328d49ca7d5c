package fault

import (
	"reflect"
	"testing"
)

// FuzzParseSpec: no input may crash the spec parser, and every
// accepted spec must re-parse from its canonical String() to an equal
// Spec. `go test` exercises the seed corpus; `make fuzz` explores.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"", " ", ",", "wal.torn:0.01,txn.abort:0.05,store.read.delay:0.1:2ms",
		"txn.abort:NaN", "wal.torn:+Inf", "wal.torn:-0", "wal.torn:1e-400",
		"store.read.delay:1:1h2m3.5s", "store.read.delay:0.5:-1s", "wal.torn:0.1:0s",
		"nope:0.5", "wal.torn", "wal.torn:0.1,wal.torn:0.2", "wal.torn:0x1p-2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		spec, err := ParseSpec(raw)
		if err != nil {
			return
		}
		back, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("accepted %q but its String() %q does not reparse: %v", raw, spec, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("round trip of %q changed %#v to %#v", raw, spec, back)
		}
	})
}
