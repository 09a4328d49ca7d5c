package relser_test

// End-to-end observability test: a traced run of the synthetic
// workload under RSGT, where every scheduler rejection explanation is
// replayed through the offline RSG machinery of the paper (§3) and
// confirmed to be a genuine cycle — the same check `rssim -trace`
// performs, exercised here hermetically.

import (
	"strings"
	"sync"
	"testing"

	"relser/internal/obs"
	"relser/internal/sched"
	"relser/internal/trace"
	"relser/internal/workload"
)

// epochSink is a trace buffer that notes how many retirement epochs
// had run when the latest cycle rejection was explained. Emit takes its
// own lock, as the trace.Sink contract requires.
type epochSink struct {
	*trace.Buffer
	retirer            sched.Retirer
	mu                 sync.Mutex
	epochsAtLastReject int64
}

func isCycleRejection(k trace.Kind) bool {
	return k == trace.KindCycleReject || k == trace.KindConflictCycle
}

func (s *epochSink) Emit(ev trace.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if isCycleRejection(ev.Kind) {
		s.epochsAtLastReject = s.retirer.RetireStats().GraphEpochs
	}
	s.Buffer.Emit(ev)
}

func TestTracedRunCycleRejectionsReplayVerify(t *testing.T) {
	for _, protocol := range []string{"rsgt", "sgt"} {
		t.Run(protocol, func(t *testing.T) {
			cfg := workload.DefaultSyntheticConfig()
			cfg.Granularity = 2
			w, err := workload.Synthetic(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			p, err := sched.NewProtocol(protocol, w.Oracle)
			if err != nil {
				t.Fatal(err)
			}
			buf := &epochSink{Buffer: trace.NewBuffer(), retirer: p.(sched.Retirer)}
			res, _, err := w.RunWith(p, workload.RunOptions{
				Seed: 1, MPL: 8, Tracer: trace.New(buf),
			})
			if err != nil {
				t.Fatal(err)
			}
			// Evidence must stay exact under retirement: the run has to be
			// long enough that the graph was compacted before the last
			// explanation.
			if buf.epochsAtLastReject == 0 {
				t.Fatalf("no retirement epoch ran before the last rejection (run total %d); lengthen the run", res.Retire.GraphEpochs)
			}
			if err := res.Verify(); err != nil {
				t.Fatalf("committed schedule failed certification: %v", err)
			}
			events := buf.Events()
			counts := trace.CountKinds(events)
			if counts[trace.KindGrant] == 0 || counts[trace.KindCommit] != res.Committed {
				t.Fatalf("event counts inconsistent with result: %v vs %v", counts, res)
			}
			if counts[trace.KindCycleReject]+counts[trace.KindConflictCycle] == 0 {
				t.Fatal("run produced no cycle rejections; pick a more contended seed")
			}
			for _, ev := range events {
				if !isCycleRejection(ev.Kind) {
					continue
				}
				if ev.Cycle == nil || len(ev.Cycle.Arcs) < 2 {
					t.Fatalf("%s without a usable cycle: %+v", ev.Kind, ev)
				}
				if !strings.Contains(ev.Cycle.String(), "->") {
					t.Errorf("cycle explanation unrendered: %q", ev.Cycle.String())
				}
			}
			// The RSG cycles replay against the offline theory; SGT's
			// transaction-granularity cycles carry no RSG arcs to replay.
			checked, err := trace.VerifyCycles(events, w.Oracle.Cuts)
			if err != nil {
				t.Fatalf("replay verification failed after %d cycle(s): %v", checked, err)
			}
			if checked != counts[trace.KindCycleReject] {
				t.Fatalf("verified %d cycles, trace has %d", checked, counts[trace.KindCycleReject])
			}
		})
	}
}

// TestTracingPreservesDecisions runs the same workload with no tracer,
// a full tracer and the sampled observability plane, for every
// graph-certifying protocol, and demands identical outcomes:
// observability must never perturb scheduling — neither the decisions
// (result line, committed schedule) nor the path that took them (the
// retirement and fast-path counters).
func TestTracingPreservesDecisions(t *testing.T) {
	type outcome struct {
		result, schedule string
		retire           sched.RetireStats
	}
	run := func(t *testing.T, protocol string, opts workload.RunOptions) outcome {
		cfg := workload.DefaultSyntheticConfig()
		cfg.Granularity = 2
		w, err := workload.Synthetic(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sched.NewProtocol(protocol, w.Oracle)
		if err != nil {
			t.Fatal(err)
		}
		opts.Seed, opts.MPL = 1, 8
		res, _, err := w.RunWith(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := res.CommittedSchedule()
		if err != nil {
			t.Fatal(err)
		}
		return outcome{res.String(), s.String(), res.Retire}
	}
	for _, protocol := range []string{"rsgt", "sgt", "ral"} {
		t.Run(protocol, func(t *testing.T) {
			off := run(t, protocol, workload.RunOptions{})
			if off.retire.FastPathHits == 0 {
				t.Fatal("untraced run never took the fast path; the comparison below would be vacuous")
			}
			for name, opts := range map[string]workload.RunOptions{
				"full":    {Tracer: trace.New(trace.NewBuffer())},
				"sampled": {Obs: obs.New(obs.Options{})},
			} {
				got := run(t, protocol, opts)
				if got.result != off.result || got.schedule != off.schedule {
					t.Errorf("%s tracing changed the decisions:\noff: %s\n%s: %s", name, off.result, name, got.result)
				}
				if got.retire != off.retire {
					t.Errorf("%s tracing changed the certification path:\noff: %+v\n%s: %+v", name, off.retire, name, got.retire)
				}
			}
		})
	}
}
