package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "count", "ratio")
	tb.AddRow("alpha", 10, 0.5)
	tb.AddRow("b", 2000, 1.25)
	out := tb.String()
	if !strings.HasPrefix(out, "demo\n") {
		t.Errorf("missing title:\n%s", out)
	}
	for _, want := range []string{"name", "count", "ratio", "alpha", "2000", "0.50", "1.25", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if rows := tb.Rows(); len(rows) != 2 {
		t.Errorf("%d rows, want 2", len(rows))
	}
}

func TestTableColumnsAligned(t *testing.T) {
	tb := NewTable("", "a", "bbbb")
	tb.AddRow("xxxxxx", 1)
	lines := strings.Split(strings.TrimSpace(tb.String()), "\n")
	// Header and row should start the second column at the same offset.
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	hIdx := strings.Index(lines[0], "bbbb")
	rIdx := strings.Index(lines[2], "1")
	if hIdx != rIdx {
		t.Errorf("misaligned columns: header at %d, row at %d\n%s", hIdx, rIdx, tb.String())
	}
}

func TestTableDurationAndSmallFloats(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(1500 * time.Microsecond)
	tb.AddRow(0.00001)
	out := tb.String()
	if !strings.Contains(out, "1.5ms") {
		t.Errorf("duration not rendered: %s", out)
	}
	if !strings.Contains(out, "e-05") {
		t.Errorf("small float not in scientific notation: %s", out)
	}
}

func TestStats(t *testing.T) {
	var s Stats
	if s.Mean() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty stats should be zero")
	}
	for _, v := range []float64{4, 1, 3, 2} {
		s.Add(v)
	}
	if s.N() != 4 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 2.5 {
		t.Errorf("Mean = %f", s.Mean())
	}
	if s.Max() != 4 {
		t.Errorf("Max = %f", s.Max())
	}
	if got := s.Percentile(50); got != 2 {
		t.Errorf("P50 = %f", got)
	}
	if got := s.Percentile(100); got != 4 {
		t.Errorf("P100 = %f", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %f", got)
	}
}
