package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(200)
	if b.Count() != 0 {
		t.Fatal("new bitset should be empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		b.Set(i)
	}
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if !b.Has(i) {
			t.Errorf("Has(%d) = false, want true", i)
		}
	}
	for _, i := range []int{2, 62, 66, 126, 198} {
		if b.Has(i) {
			t.Errorf("Has(%d) = true, want false", i)
		}
	}
	b.Clear(64)
	if b.Has(64) {
		t.Error("Clear(64) did not clear")
	}
	if b.Count() != 7 {
		t.Fatalf("Count after Clear = %d, want 7", b.Count())
	}
}

func TestBitsetHasOutOfRange(t *testing.T) {
	b := NewBitset(10)
	if b.Has(1000) {
		t.Error("Has beyond capacity should report false")
	}
	if b.Has(-1) {
		t.Error("Has(-1) should report false")
	}
}

func TestBitsetUnion(t *testing.T) {
	a := NewBitset(128)
	b := NewBitset(128)
	a.Set(3)
	a.Set(70)
	b.Set(70)
	b.Set(90)
	u := a.Clone()
	if !u.UnionWith(b) {
		t.Fatal("UnionWith gaining 90 reported no change")
	}
	if u.UnionWith(b) || u.UnionWith(a) {
		t.Fatal("UnionWith of a subset reported a change")
	}
	if !a.Intersects(b) || !b.Intersects(u) {
		t.Fatal("sets sharing 70 reported disjoint")
	}
	if c := NewBitset(128); c.Intersects(u) {
		t.Fatal("empty set intersects")
	}
	want := []int{3, 70, 90}
	got := u.Elements()
	if len(got) != len(want) {
		t.Fatalf("union elements = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union elements = %v, want %v", got, want)
		}
	}
}

func TestBitsetForEachEarlyStop(t *testing.T) {
	b := NewBitset(100)
	for i := 0; i < 100; i += 10 {
		b.Set(i)
	}
	var seen []int
	b.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 10 || seen[2] != 20 {
		t.Fatalf("early stop saw %v", seen)
	}
}

func TestBitsetResetCloneIndependence(t *testing.T) {
	a := NewBitset(64)
	a.Set(5)
	c := a.Clone()
	a.Reset()
	if a.Count() != 0 {
		t.Error("Reset did not empty the set")
	}
	if !c.Has(5) {
		t.Error("Clone should be independent of Reset")
	}
}

func TestBitsetString(t *testing.T) {
	b := NewBitset(64)
	b.Set(1)
	b.Set(5)
	if got := b.String(); got != "{1, 5}" {
		t.Errorf("String = %q, want {1, 5}", got)
	}
	if got := NewBitset(64).String(); got != "{}" {
		t.Errorf("empty String = %q, want {}", got)
	}
}

func TestBitsetQuickMatchesMap(t *testing.T) {
	// Property: a bitset agrees with a map[int]bool reference under a
	// random sequence of Set/Clear operations.
	f := func(ops []uint16) bool {
		const n = 256
		b := NewBitset(n)
		ref := make(map[int]bool)
		for _, raw := range ops {
			i := int(raw) % n
			if raw%2 == 0 {
				b.Set(i)
				ref[i] = true
			} else {
				b.Clear(i)
				delete(ref, i)
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if b.Has(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestBitsetCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UnionWith with mismatched capacity should panic")
		}
	}()
	NewBitset(64).UnionWith(NewBitset(128))
}
