package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotone event count, safe for concurrent use. A nil
// *Counter (no registry attached) ignores updates and reads zero, so
// instrumented code needs no nil guard; the same holds for *Gauge and
// *Histogram.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (e.g. active transactions), safe for
// concurrent use.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores the level.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add moves the level by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v += delta
	g.mu.Unlock()
}

// Value returns the current level.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram accumulates a sample distribution, safe for concurrent
// use. Percentiles are exact (nearest-rank over the retained sample),
// matching the Stats type the experiments already report with.
type Histogram struct {
	mu sync.Mutex
	s  Stats
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.s.Add(v)
	h.mu.Unlock()
}

// Summary returns the distribution's summary statistics.
func (h *Histogram) Summary() HistSummary {
	if h == nil {
		return HistSummary{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSummary{
		Count: h.s.N(),
		Mean:  h.s.Mean(),
		P50:   h.s.Percentile(50),
		P95:   h.s.Percentile(95),
		P99:   h.s.Percentile(99),
		Max:   h.s.Max(),
	}
}

// HistSummary is a histogram's point-in-time summary.
type HistSummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Registry is a named collection of counters, gauges and histograms.
// Lookups are get-or-create, so instrumentation sites can fetch their
// instruments once and hold the pointers (the hot-path cost is then a
// single atomic add). The zero Registry is not usable; construct with
// NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSummary, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Summary()
	}
	return s
}

// Snapshot is a point-in-time view of a registry, suitable for JSON
// export.
type Snapshot struct {
	Counters   map[string]int64       `json:"counters,omitempty"`
	Gauges     map[string]float64     `json:"gauges,omitempty"`
	Histograms map[string]HistSummary `json:"histograms,omitempty"`
}

// Table renders the snapshot as a fixed-width table with one row per
// instrument, sorted by name within each instrument class.
func (s Snapshot) Table(title string) *Table {
	t := NewTable(title, "metric", "type", "count", "value", "p50", "p95", "p99", "max")
	for _, name := range sortedNames(s.Counters) {
		t.AddRow(name, "counter", s.Counters[name], "", "", "", "", "")
	}
	for _, name := range sortedNames(s.Gauges) {
		t.AddRow(name, "gauge", "", s.Gauges[name], "", "", "", "")
	}
	for _, name := range sortedNames(s.Histograms) {
		h := s.Histograms[name]
		t.AddRow(name, "histogram", h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
	}
	return t
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
