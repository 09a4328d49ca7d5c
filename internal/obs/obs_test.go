package obs_test

// Plane tests: the full-trace mode replays through the paper's offline
// cycle verification, spans reconcile with the run result, the ops
// endpoint serves every route, the SSE tail streams live events, and
// degradation events trigger deduplicated automatic flight dumps.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"relser/internal/fault"
	"relser/internal/metrics"
	"relser/internal/obs"
	"relser/internal/sched"
	"relser/internal/trace"
	"relser/internal/txn"
	"relser/internal/workload"
)

// contendedRun executes the contended synthetic workload under RSGT
// with the given plane attached and returns the workload and result.
func contendedRun(t *testing.T, plane *obs.Plane) (*workload.Workload, *txn.Result) {
	t.Helper()
	cfg := workload.DefaultSyntheticConfig()
	cfg.Granularity = 2
	w, err := workload.Synthetic(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{
		Seed: 1, MPL: 8, Obs: plane,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("committed schedule failed certification: %v", err)
	}
	return w, res
}

// TestPlaneFullTraceReplaysThroughVerifyCycles runs the contended
// workload with the plane in full-trace mode and replays the flight
// recorder's retained stream through the offline RSG verification —
// the recorder must be a faithful substitute for a -trace buffer when
// nothing is dropped. Spans must reconcile exactly with the result.
func TestPlaneFullTraceReplaysThroughVerifyCycles(t *testing.T) {
	plane := obs.New(obs.Options{Full: true, RingCap: 1 << 17})
	w, res := contendedRun(t, plane)
	defer plane.Close()

	flight := plane.Flight()
	if drops := plane.Registry().Snapshot().Counters["obs.ring_drops"]; drops != 0 {
		t.Fatalf("ring dropped %d events; raise RingCap so replay sees the full stream", drops)
	}
	counts := trace.CountKinds(flight)
	if counts[trace.KindCommit] != res.Committed {
		t.Fatalf("flight has %d commits, result %d", counts[trace.KindCommit], res.Committed)
	}
	rejects := counts[trace.KindCycleReject]
	if rejects == 0 {
		t.Fatal("run produced no cycle rejections; pick a more contended seed")
	}
	checked, err := trace.VerifyCycles(flight, w.Oracle.Cuts)
	if err != nil {
		t.Fatalf("flight-recorder replay failed after %d cycle(s): %v", checked, err)
	}
	if checked != rejects {
		t.Fatalf("verified %d cycles, flight has %d", checked, rejects)
	}

	spans := plane.Spans()
	var committed, aborted, linked, reasoned int
	for _, sp := range spans {
		switch sp.Status {
		case "committed":
			committed++
		case "aborted":
			aborted++
			if sp.Reason != "" {
				reasoned++
			}
		default:
			t.Fatalf("span with unexpected status %q: %+v", sp.Status, sp)
		}
		if len(sp.Links) > 0 {
			linked++
		}
		if sp.End < sp.Start {
			t.Fatalf("span ends before it starts: %+v", sp)
		}
	}
	if committed != res.Committed || aborted != res.Aborts {
		t.Fatalf("spans committed=%d aborted=%d, result %d/%d", committed, aborted, res.Committed, res.Aborts)
	}
	if linked == 0 {
		t.Error("no span carries RSG cycle evidence despite cycle rejections")
	}
	if aborted > 0 && reasoned == 0 {
		t.Error("no aborted span carries the driver's abort reason")
	}
}

// TestPlaneSamplingGate pins the gate arithmetic: one hot event in
// SampleEvery passes, the first of a hot kind always, rare kinds are
// never sampled, and an enabled downstream tracer forces full mode
// (offline replay needs the complete stream).
func TestPlaneSamplingGate(t *testing.T) {
	if obs.SampleEvery != 64 {
		t.Fatalf("SampleEvery = %d, want 64", obs.SampleEvery)
	}
	plane := obs.New(obs.Options{})
	tr := plane.Tracer(nil)
	passed := 0
	for i := 0; i < 130; i++ {
		if tr.Wants(trace.KindGrant) {
			passed++
		}
	}
	if passed != 3 {
		t.Errorf("130 grants passed %d times, want 3 (one in SampleEvery=64)", passed)
	}
	for i := 0; i < 10; i++ {
		if !tr.Wants(trace.KindCycleReject) || !tr.Wants(trace.KindWedge) {
			t.Fatal("rare kinds must never be sampled")
		}
	}

	buf := trace.NewBuffer()
	full := obs.New(obs.Options{}).Tracer(trace.New(buf))
	for i := 0; i < 130; i++ {
		if !full.Wants(trace.KindGrant) {
			t.Fatal("downstream sink attached: sampling must be disabled")
		}
	}
}

// TestPlaneDownstreamTee runs with both a plane and a -trace style
// buffer attached and demands the tee delivers the identical complete
// stream to both: the buffer must replay through VerifyCycles and the
// recorder must have seen every event the buffer did.
func TestPlaneDownstreamTee(t *testing.T) {
	plane := obs.New(obs.Options{RingCap: 1 << 17})
	buf := trace.NewBuffer()
	cfg := workload.DefaultSyntheticConfig()
	cfg.Granularity = 2
	w, err := workload.Synthetic(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{
		Seed: 1, MPL: 8, Obs: plane, Tracer: trace.New(buf),
	}); err != nil {
		t.Fatal(err)
	}
	events := buf.Events()
	if len(events) == 0 {
		t.Fatal("downstream buffer saw no events")
	}
	if got := plane.Recorder().Recorded(); got != uint64(len(events)) {
		t.Errorf("recorder saw %d events, downstream %d; the tee must not sample", got, len(events))
	}
	if _, err := trace.VerifyCycles(events, w.Oracle.Cuts); err != nil {
		t.Errorf("downstream stream failed replay verification: %v", err)
	}
}

// TestServerEndpoints runs a workload with the plane attached and
// scrapes every ops route, checking each response reconciles with the
// in-process state.
func TestServerEndpoints(t *testing.T) {
	plane := obs.New(obs.Options{})
	srv, err := plane.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr().String()
	_, res := contendedRun(t, plane)

	// Prometheus text exposition: canonical counter and histogram
	// summary lines for both engine and plane instruments.
	text := string(get(t, base+"/metrics"))
	for _, want := range []string{
		"# TYPE txn_committed counter",
		fmt.Sprintf("txn_committed %d", res.Committed),
		"# TYPE obs_ring_recorded counter",
		"# TYPE txn_latency summary",
		`txn_latency{quantile="0.5"}`,
		"txn_latency_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	// JSON snapshot: counters match the run result exactly.
	var snap metrics.Snapshot
	getJSON(t, base+"/metrics?format=json", &snap)
	if got := snap.Counters["txn.committed"]; got != int64(res.Committed) {
		t.Errorf("scraped txn.committed = %d, result %d", got, res.Committed)
	}

	// Health: agrees with the result, not wedged after a clean run.
	var h obs.Health
	getJSON(t, base+"/healthz", &h)
	if h.Wedged || h.Status == "" {
		t.Errorf("unexpected health after clean run: %+v", h)
	}
	if h.Committed != int64(res.Committed) {
		t.Errorf("health committed = %d, result %d", h.Committed, res.Committed)
	}

	// Flight dump: every JSONL line decodes and the count matches the
	// in-process snapshot.
	lines := jsonlLines(t, get(t, base+"/debug/flight"))
	if want := len(plane.Flight()); len(lines) != want {
		t.Errorf("/debug/flight served %d events, recorder holds %d", len(lines), want)
	}
	var ev trace.Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Errorf("flight line does not decode as a trace event: %v", err)
	}

	// Spans: JSONL and Chrome trace renderings.
	spanLines := jsonlLines(t, get(t, base+"/debug/spans"))
	spans := plane.Spans()
	if len(spanLines) != len(spans) {
		t.Errorf("/debug/spans served %d spans, table holds %d", len(spanLines), len(spans))
	}
	var sp obs.Span
	if err := json.Unmarshal([]byte(spanLines[0]), &sp); err != nil {
		t.Errorf("span line does not decode: %v", err)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	getJSON(t, base+"/debug/spans?format=chrome", &chrome)
	if len(chrome.TraceEvents) != 2*len(spans) {
		t.Errorf("chrome rendering has %d events, want B/E pairs for %d spans", len(chrome.TraceEvents), len(spans))
	}
	chrome.TraceEvents = nil
	getJSON(t, base+"/debug/flight?format=chrome", &chrome)
	if len(chrome.TraceEvents) == 0 {
		t.Error("chrome flight rendering is empty")
	}

	// pprof is mounted.
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", resp.StatusCode)
	}

	// Scrapes are themselves counted (dynamic obs.http.* keys).
	if got := plane.Registry().Snapshot().Counters["obs.http.metrics.requests"]; got < 2 {
		t.Errorf("obs.http.metrics.requests = %d, want >= 2", got)
	}

	// A wedge flips /healthz to 503 with status "wedged".
	plane.Tracer(nil).Emit(trace.Event{Kind: trace.KindWedge, Reason: "no progress for 1000 ticks"})
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "wedged" {
		t.Errorf("wedged health = %d %+v, want 503/wedged", resp.StatusCode, h)
	}

	// Scrape fidelity under degradation: after an abort-storm banking run
	// (injected aborts, grant delays, a logical deadline) on a plane of
	// its own, the live scrape must match the end-of-run Result counter
	// for counter — real sheds and timeouts, not zeros — on both
	// drivers.
	for _, concurrent := range []bool{false, true} {
		t.Run(fmt.Sprintf("concurrent=%v", concurrent), func(t *testing.T) {
			scrapeMatchesResultAfterStorm(t, concurrent)
		})
	}
}

func scrapeMatchesResultAfterStorm(t *testing.T, concurrent bool) {
	storm := obs.New(obs.Options{})
	stormSrv, err := storm.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stormSrv.Close()
	stormBase := "http://" + stormSrv.Addr().String()
	bcfg := workload.DefaultBankingConfig()
	bcfg.CreditAudits, bcfg.BankAudits = 0, 0
	bank, err := workload.Banking(bcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	sres, _, err := bank.RunWith(sched.NewRSGT(bank.Oracle), workload.RunOptions{
		Seed: 1, MPL: 8, Obs: storm, Deadline: 16, Concurrent: concurrent,
		Faults: fault.New(1, fault.MustParseSpec("txn.abort:0.5,sched.grant.delay:0.05")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sres.LoadSheds == 0 {
		t.Error("abort storm shed no load; the scrape would compare zeros")
	}
	var stormSnap metrics.Snapshot
	getJSON(t, stormBase+"/metrics?format=json", &stormSnap)
	for _, c := range []struct {
		key  string
		want int
	}{
		{"txn.committed", sres.Committed},
		{"txn.aborts", sres.Aborts},
		{"txn.load_sheds", sres.LoadSheds},
		{"txn.deadline_aborts", sres.DeadlineAborts},
		{"txn.injected_aborts", sres.InjectedAborts},
		{"txn.injected_delays", sres.InjectedDelays},
		{"txn.recoverability_aborts", sres.RecoverabilityAborts},
		{"txn.restarts", sres.Restarts},
		{"txn.ops_executed", sres.OpsExecuted},
		{"txn.blocks", sres.Blocks},
		{"txn.commit_waits", sres.CommitWaits},
		{"txn.livelock_escalations", sres.LivelockEscalations},
		{"txn.cancel_aborts", sres.CancelAborts},
	} {
		if got := stormSnap.Counters[c.key]; got != int64(c.want) {
			t.Errorf("after abort storm: scraped %s = %d, result %d", c.key, got, c.want)
		}
	}
	var sh obs.Health
	getJSON(t, stormBase+"/healthz", &sh)
	if sh.Committed != int64(sres.Committed) || sh.Wedged {
		t.Errorf("health after abort storm = %+v, result committed %d", sh, sres.Committed)
	}
}

// TestSSELiveTail subscribes to /debug/trace and checks events emitted
// after subscription stream out as SSE data lines.
func TestSSELiveTail(t *testing.T) {
	plane := obs.New(obs.Options{})
	srv, err := plane.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := plane.Tracer(nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+srv.Addr().String()+"/debug/trace", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	// The subscriber registers between the header flush and the first
	// channel read; emit until a line arrives so the test cannot race
	// the subscription.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				tr.Emit(trace.Event{Kind: trace.KindDonate, Instance: int64(i), Reason: "sse-test"})
			}
		}
	}()

	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev trace.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("SSE data line does not decode: %v (%q)", err, line)
		}
		if ev.Kind != trace.KindDonate || ev.Reason != "sse-test" {
			t.Fatalf("unexpected event on the tail: %+v", ev)
		}
		return // got a live event; done
	}
	t.Fatalf("SSE stream ended without an event: %v", scanner.Err())
}

// TestAutoDumpTriggers feeds the degradation events that must trigger
// automatic flight dumps — wedge, cancel, abort-storm shedding,
// livelock escalation past the threshold — plus the near misses that
// must not, and checks the dump files land deduplicated and readable.
func TestAutoDumpTriggers(t *testing.T) {
	dir := t.TempDir()
	plane := obs.New(obs.Options{DumpDir: dir})
	tr := plane.Tracer(nil)

	// Some ring content so dumps are non-empty.
	for i := 0; i < 5; i++ {
		tr.Emit(trace.Event{Kind: trace.KindCycleReject, Instance: int64(i)})
	}

	// Near misses first: routine shed recovery (above half MPL) and a
	// level-1 livelock escalation stay below the thresholds.
	tr.Emit(trace.Event{Kind: trace.KindShed, Reason: "effective-mpl=12/16"})
	tr.Emit(trace.Event{Kind: trace.KindFault, Reason: "livelock-escalation level=1"})
	plane.Close()
	if dumps, _ := plane.Dumps(); len(dumps) != 0 {
		t.Fatalf("near-miss events triggered dumps: %v", dumps)
	}

	// The real triggers, each twice — dedup must keep one dump per
	// trigger kind.
	for i := 0; i < 2; i++ {
		tr.Emit(trace.Event{Kind: trace.KindShed, Reason: "effective-mpl=4/16"})
		tr.Emit(trace.Event{Kind: trace.KindWedge, Reason: "stalled"})
		tr.Emit(trace.Event{Kind: trace.KindCancel, Reason: "context canceled"})
		tr.Emit(trace.Event{Kind: trace.KindFault, Reason: "livelock-escalation level=2"})
	}
	plane.Close()
	dumps, errs := plane.Dumps()
	if len(errs) != 0 {
		t.Fatalf("dump errors: %v", errs)
	}
	if len(dumps) != 4 {
		t.Fatalf("got %d dumps, want one per trigger kind: %v", len(dumps), dumps)
	}
	byTrigger := make(map[string]string)
	for _, path := range dumps {
		// flight-<seq>-<trigger>.jsonl, where <seq> is two digits and
		// <trigger> may itself contain dashes ("abort-storm").
		name := filepath.Base(path)
		trigger := strings.TrimSuffix(strings.TrimPrefix(name, "flight-")[3:], ".jsonl")
		byTrigger[trigger] = path
	}
	for _, want := range []string{"abort-storm", "wedge", "cancel", "livelock"} {
		path, ok := byTrigger[want]
		if !ok {
			t.Errorf("no dump for trigger %q (have %v)", want, dumps)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) == 0 || lines[0] == "" {
			t.Errorf("dump %s is empty", path)
			continue
		}
		var ev trace.Event
		if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
			t.Errorf("dump %s line does not decode: %v", path, err)
		}
	}
	if got := plane.Registry().Snapshot().Counters["obs.dump_triggers"]; got != 4 {
		t.Errorf("obs.dump_triggers = %d, want 4", got)
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	if err := json.Unmarshal(get(t, url), into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func jsonlLines(t *testing.T, data []byte) []string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty JSONL body")
	}
	return lines
}

// TestDumpHeaderAndHealthAnnotations: once a run's fault schedule and
// recording are annotated, flight dumps lead with a self-describing
// header line and /healthz reports both — a dump or scrape alone
// identifies the spec, seed and .rsrec artifact that reproduce it.
func TestDumpHeaderAndHealthAnnotations(t *testing.T) {
	dir := t.TempDir()
	plane := obs.New(obs.Options{DumpDir: dir})
	plane.AnnotateFaults("shard.wedge:1", 42, func() string { return "deadbeefdeadbeef" })
	plane.SetRecording("/tmp/run.rsrec", func() int64 { return 17 })

	tr := plane.Tracer(nil)
	tr.Emit(trace.Event{Kind: trace.KindWedge, Reason: "stalled"})
	plane.Close()
	dumps, errs := plane.Dumps()
	if len(errs) != 0 || len(dumps) != 1 {
		t.Fatalf("dumps %v errs %v", dumps, errs)
	}
	data, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var hdr struct {
		Header           bool   `json:"header"`
		FaultSpec        string `json:"fault_spec"`
		FaultSeed        int64  `json:"fault_seed"`
		FaultFingerprint string `json:"fault_fingerprint"`
		Recording        string `json:"recording"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header line does not decode: %v (%q)", err, lines[0])
	}
	if !hdr.Header || hdr.FaultSpec != "shard.wedge:1" || hdr.FaultSeed != 42 ||
		hdr.FaultFingerprint != "deadbeefdeadbeef" || hdr.Recording != "/tmp/run.rsrec" {
		t.Fatalf("header %+v", hdr)
	}
	// The wedge event itself must still follow the header.
	var ev trace.Event
	if len(lines) < 2 {
		t.Fatal("header-only dump: events missing")
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil || ev.Kind != trace.KindWedge {
		t.Fatalf("second line is not the wedge event: %v %+v", err, ev)
	}

	h := plane.Health()
	if h.FaultSpec != "shard.wedge:1" || h.FaultSeed != 42 {
		t.Fatalf("health fault stamp: %+v", h)
	}
	if h.Recording == nil || !h.Recording.Active || h.Recording.Path != "/tmp/run.rsrec" || h.Recording.Stages != 17 {
		t.Fatalf("health recording status: %+v", h.Recording)
	}

	// Un-annotated planes keep the legacy headerless format.
	plain := obs.New(obs.Options{DumpDir: t.TempDir()})
	ptr := plain.Tracer(nil)
	ptr.Emit(trace.Event{Kind: trace.KindWedge, Reason: "stalled"})
	plain.Close()
	pd, _ := plain.Dumps()
	if len(pd) != 1 {
		t.Fatalf("plain dumps %v", pd)
	}
	pdata, _ := os.ReadFile(pd[0])
	first := strings.SplitN(strings.TrimSpace(string(pdata)), "\n", 2)[0]
	if strings.Contains(first, "\"header\":true") {
		t.Fatalf("un-annotated dump grew a header: %q", first)
	}
	if h := plain.Health(); h.FaultSpec != "" || h.Recording != nil {
		t.Fatalf("un-annotated health carries annotations: %+v", h)
	}
}
