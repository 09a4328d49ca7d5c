package workload_test

// Driver parity for bounded-memory certification over the committed
// deterministic corpus: the serial driver retires a reproducible
// vertex set (two runs agree exactly), and both drivers retire every
// vertex they create — after Finalize nothing is live or pending, so
// the retired set is identical to the created set on each driver.

import (
	"path/filepath"
	"testing"

	"relser/internal/record"
	"relser/internal/sched"
	"relser/internal/workload"
)

func corpusManifests(t *testing.T) []record.Manifest {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "recordings", "*.rsrec"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed corpus found: %v", err)
	}
	var ms []record.Manifest
	for _, path := range paths {
		rec, err := record.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ms = append(ms, rec.Manifest)
	}
	return ms
}

func retireRun(t *testing.T, m record.Manifest, concurrent bool) sched.RetireStats {
	t.Helper()
	w, err := workload.Build(m.Workload)
	if err != nil {
		t.Fatalf("%s: build: %v", m.Workload.Name, err)
	}
	p, err := sched.NewProtocol(m.Protocol, w.Oracle)
	if err != nil {
		t.Fatalf("%s: protocol %q: %v", m.Workload.Name, m.Protocol, err)
	}
	if _, ok := p.(sched.Retirer); !ok {
		// Corpus entries recorded under non-certifying protocols (e.g.
		// timestamp ordering) have no graph to retire; drive the same
		// workload under the RSG certifier instead.
		if p, err = sched.NewProtocol("rsgt", w.Oracle); err != nil {
			t.Fatal(err)
		}
	}
	r, ok := p.(sched.Retirer)
	if !ok {
		t.Fatalf("%s: protocol %q is not a sched.Retirer", m.Workload.Name, p.Name())
	}
	res, _, err := w.RunWith(p, workload.RunOptions{
		Seed:       m.Seed,
		MPL:        m.MPL,
		Concurrent: concurrent,
	})
	if err != nil {
		t.Fatalf("%s (concurrent=%v): run: %v", m.Workload.Name, concurrent, err)
	}
	// Retirement is not a mode: the engine reports exactly the stats the
	// protocol's certifier keeps.
	if got := r.RetireStats(); res.Retire != got {
		t.Fatalf("%s (concurrent=%v): engine reported %+v, protocol holds %+v", m.Workload.Name, concurrent, res.Retire, got)
	}
	return res.Retire
}

func TestRetireParityAcrossDrivers(t *testing.T) {
	for _, m := range corpusManifests(t) {
		m := m
		t.Run(m.Workload.Name, func(t *testing.T) {
			serial := retireRun(t, m, false)
			if serial.LiveVertices != 0 || serial.PendingRetire != 0 {
				t.Fatalf("serial run finished with live=%d pending=%d, want 0/0",
					serial.LiveVertices, serial.PendingRetire)
			}
			if serial.RetiredVertices == 0 {
				t.Fatal("serial run retired nothing")
			}
			// The serial driver is deterministic, so the retired vertex set
			// — and with it every counter — must reproduce exactly.
			if again := retireRun(t, m, false); again != serial {
				t.Fatalf("serial retirement not reproducible:\n first: %+v\nsecond: %+v", serial, again)
			}
			// The concurrent driver schedules differently (so totals may
			// differ), but it must satisfy the same contract: everything it
			// created is retired by Finalize.
			conc := retireRun(t, m, true)
			if conc.LiveVertices != 0 || conc.PendingRetire != 0 {
				t.Fatalf("concurrent run finished with live=%d pending=%d, want 0/0",
					conc.LiveVertices, conc.PendingRetire)
			}
			if conc.RetiredVertices == 0 {
				t.Fatal("concurrent run retired nothing")
			}
		})
	}
}
