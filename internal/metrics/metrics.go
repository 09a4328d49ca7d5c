// Package metrics provides the small measurement and reporting toolkit
// the experiment harness uses: counters, duration statistics and
// fixed-width table rendering matching the tabular style of the
// EXPERIMENTS.md report.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are rendered with %v.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		case time.Duration:
			row[i] = x.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(x float64) string {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 0):
		return fmt.Sprint(x)
	case x == 0:
		// Covers negative zero too, which %.2f would render "-0.00".
		return "0.00"
	case math.Abs(x) < 0.01:
		return fmt.Sprintf("%.2e", x)
	default:
		return fmt.Sprintf("%.2f", x)
	}
}

// Rows returns a copy of the rendered data rows, for machine-readable
// exports (rsbench JSON artifacts).
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, row := range t.rows {
		out[i] = append([]string(nil), row...)
	}
	return out
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	t.WriteTo(&sb) //nolint:errcheck // strings.Builder cannot fail
	return sb.String()
}

// Stats summarizes a sample of float64 observations.
type Stats struct {
	values []float64
}

// Add appends an observation.
func (s *Stats) Add(v float64) { s.values = append(s.values, v) }

// N returns the sample size.
func (s *Stats) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for empty samples).
func (s *Stats) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Max returns the largest observation (0 for empty samples).
func (s *Stats) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) by
// nearest-rank on a sorted copy.
func (s *Stats) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}
