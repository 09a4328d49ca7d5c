package experiments

import (
	"testing"

	"relser/internal/core"
	"relser/internal/sched"
)

// abortSpy forwards to a protocol and flags any Request for an
// instance it has already seen aborted.
type abortSpy struct {
	sched.Protocol
	t       *testing.T
	aborted map[int64]bool
}

func (s *abortSpy) Request(req sched.OpRequest) sched.Decision {
	if s.aborted[req.Instance] {
		s.t.Errorf("Request for instance %d after its Abort: %v", req.Instance, req.Op)
		return sched.Abort
	}
	return s.Protocol.Request(req)
}

func (s *abortSpy) Abort(instance int64) {
	s.aborted[instance] = true
	s.Protocol.Abort(instance)
}

// TestReplayThroughStopsAtAbort: SGT refuses w2[x] (lost update), and
// T2 still has w2[y] to go; replayThrough must stop there rather than
// keep requesting for the aborted instance.
func TestReplayThroughStopsAtAbort(t *testing.T) {
	ts := core.MustTxnSet(
		core.T(1, core.R("x"), core.W("x")),
		core.T(2, core.R("x"), core.W("x"), core.W("y")),
	)
	s, err := core.ParseSchedule(ts, "r1[x] r2[x] w1[x] w2[x] w2[y]")
	if err != nil {
		t.Fatal(err)
	}
	spy := &abortSpy{Protocol: sched.NewSGT(), t: t, aborted: map[int64]bool{}}
	got := replayThrough(spy, s)
	if len(got) != 4 || got[3] == sched.Grant || !spy.aborted[2] {
		t.Fatalf("decisions %v, aborted %v: want SGT to refuse w2[x] and abort T2", got, spy.aborted)
	}
}
