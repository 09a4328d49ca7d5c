package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestFormatFloatNearZero(t *testing.T) {
	cases := map[float64]string{
		0:       "0.00",
		-0.0042: "-4.20e-03",
		0.0042:  "4.20e-03",
		-1.5:    "-1.50",
		2:       "2.00",
	}
	negZero := -1.0 * 0.0
	cases[negZero] = "0.00"
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestTableRowsCopy(t *testing.T) {
	tab := NewTable("t", "a", "b")
	tab.AddRow(1, 2)
	rows := tab.Rows()
	if len(rows) != 1 || rows[0][0] != "1" || rows[0][1] != "2" {
		t.Fatalf("Rows() = %v", rows)
	}
	rows[0][0] = "mutated"
	if tab.Rows()[0][0] != "1" {
		t.Error("Rows() aliases internal storage")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Inc()
	c.Add(2)
	if r.Counter("ops") != c {
		t.Error("Counter does not return the same instance")
	}
	if got := r.Counter("ops").Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	g := r.Gauge("active")
	g.Set(4)
	g.Add(-1)
	if r.Gauge("active").Value() != 3 {
		t.Errorf("gauge = %v, want 3", r.Gauge("active").Value())
	}
	h := r.Histogram("latency")
	for _, v := range []float64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	h.Observe(2)
	sum := r.Histogram("latency").Summary()
	if sum.Count != 6 || sum.Max != 100 {
		t.Errorf("histogram summary = %+v", sum)
	}
	// Sample is {1, 2, 3, 4, 100, 2}; nearest-rank p50 of the sorted
	// sample {1, 2, 2, 3, 4, 100} is the 3rd value.
	if sum.P50 != 2 {
		t.Errorf("p50 = %v, want 2", sum.P50)
	}
	if sum.P99 != 100 {
		t.Errorf("p99 = %v, want 100", sum.P99)
	}
}

// TestNilInstruments: instruments resolved without a registry are nil
// and every method on them is a no-op reading zero.
func TestNilInstruments(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(2)
	var g *Gauge
	g.Set(4)
	g.Add(-1)
	var h *Histogram
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Summary() != (HistSummary{}) {
		t.Errorf("nil instruments read %d / %v / %+v, want zero", c.Value(), g.Value(), h.Summary())
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Errorf("gauge = %v, want 8000", got)
	}
	if got := r.Histogram("h").Summary().Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

// TestHistogramSummaryConcurrentObserve hammers one histogram from
// eight writers while a reader keeps taking summaries, then checks the
// final nearest-rank quantiles exactly. Under -race this pins the
// Observe/Summary locking discipline the obs plane's /metrics endpoint
// relies on (scrapes summarize histograms mid-run).
func TestHistogramSummaryConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	const writers, perWriter = 8, 1000
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Summary()
			if s.Count < last {
				t.Errorf("summary count went backwards: %d after %d", s.Count, last)
				return
			}
			last = s.Count
			if s.Count > 0 && (s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max) {
				t.Errorf("mid-flight quantiles out of order: %+v", s)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				h.Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	s := h.Summary()
	if s.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", s.Count, writers*perWriter)
	}
	// Every value 0..999 appears exactly 8 times, so nearest-rank
	// quantiles are fully determined: rank ceil(q*8000) lands on value
	// floor((rank-1)/8).
	if s.P50 != 499 {
		t.Errorf("p50 = %v, want 499", s.P50)
	}
	if s.P95 != 949 {
		t.Errorf("p95 = %v, want 949", s.P95)
	}
	if s.P99 != 989 {
		t.Errorf("p99 = %v, want 989", s.P99)
	}
	if s.Max != 999 {
		t.Errorf("max = %v, want 999", s.Max)
	}
	if s.Mean != 499.5 {
		t.Errorf("mean = %v, want 499.5", s.Mean)
	}
}

func TestSnapshotTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("txn.committed").Add(10)
	r.Gauge("txn.active").Set(2)
	r.Histogram("txn.latency").Observe(5)
	r.Counter("txn.aborts").Add(1)
	out := r.Snapshot().Table("run metrics").String()
	for _, want := range []string{"run metrics", "txn.committed", "counter", "txn.active", "gauge", "txn.latency", "histogram"} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Rows sort counters, then gauges, then histograms.
	if !strings.HasPrefix(lines[3], "txn.aborts") {
		t.Errorf("first data row = %q, want txn.aborts first", lines[3])
	}
}
