package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// This file holds the graceful-degradation machinery shared by both
// drivers: admission-control load shedding under abort storms, livelock
// detection with escalating restart backoff, and the wedge diagnosis
// the concurrent driver's stall watchdog escalates with. All of it is
// deterministic given the run's seeds — the shedder and detector
// consume only commit/abort outcomes, and backoff draws come from
// dedicated RNG streams decoupled from scheduling decisions.

// WedgeError is the watchdog's diagnosis when the concurrent driver
// makes no progress for longer than Config.Watchdog: instead of the run
// hanging, the watchdog cancels the run context with this error as the
// cause, naming what was live at the time. Injected shard wedges
// (fault.ShardWedge) are released when the watchdog fires, so even a
// rate-1 wedge terminates.
type WedgeError struct {
	// After is the progress-free interval that tripped the watchdog.
	After time.Duration
	// Active and Sleepers snapshot the in-flight instance count and the
	// workers parked on condition variables when the wedge was declared.
	Active   int64
	Sleepers int64
	// Suspects lists driver shards whose mutex could not be acquired at
	// diagnosis time — a worker is stuck holding them.
	Suspects []int
}

func (e *WedgeError) Error() string {
	s := fmt.Sprintf("txn: watchdog: no progress for %v with %d active instances (%d asleep)",
		e.After, e.Active, e.Sleepers)
	if len(e.Suspects) > 0 {
		s += fmt.Sprintf("; wedged shards %v", e.Suspects)
	}
	return s
}

// shedWindow is the number of commit/abort outcomes per
// admission-control evaluation window.
const shedWindow = 32

// shedder is the admission controller: it watches the commit/abort mix
// in tumbling windows and halves the effective multiprogramming level
// when aborts dominate (an abort storm — thrashing restarts that only
// feed more conflicts), then recovers one slot per healthy window. The
// effective limit is stored atomically so admission paths can read it
// without the owner's lock; observe is caller-synchronized (the
// deterministic Runner is single-threaded, the concurrent driver calls
// it under the exclusive state lock).
type shedder struct {
	mpl       int
	effective atomic.Int64
	commits   int
	aborts    int
	sheds     int
	minEff    int
}

func newShedder(mpl int) *shedder {
	s := &shedder{mpl: mpl, minEff: mpl}
	s.effective.Store(int64(mpl))
	return s
}

// observe folds one commit (true) or abort (false) outcome and, at
// window boundaries, re-evaluates the limit. It returns the current
// limit and whether this call changed it.
func (s *shedder) observe(commit bool) (int, bool) {
	if commit {
		s.commits++
	} else {
		s.aborts++
	}
	if s.commits+s.aborts < shedWindow {
		return s.limit(), false
	}
	prev := s.limit()
	next := prev
	switch {
	case s.aborts >= 4*(s.commits+1):
		if next > 1 {
			next /= 2
			s.sheds++
		}
	case s.aborts <= s.commits && next < s.mpl:
		next++
	}
	s.commits, s.aborts = 0, 0
	if next != prev {
		s.effective.Store(int64(next))
		if next < s.minEff {
			s.minEff = next
		}
	}
	return next, next != prev
}

// limit returns the effective multiprogramming level. Safe from any
// goroutine.
func (s *shedder) limit() int { return int(s.effective.Load()) }

// livelock detects restart storms that never reach a commit: each
// escalation level doubles the restart budget (16, 32, 64, ...) and
// widens restart backoff, spreading contenders further apart than
// per-instance exponential backoff alone would. Caller-synchronized
// like the shedder.
type livelock struct {
	restartsSinceCommit int
	level               int
	escalations         int
}

// livelockMaxLevel caps backoff widening at 4 extra exponent steps.
const livelockMaxLevel = 4

// noteRestart records one restart and returns the current escalation
// level plus whether this restart escalated it.
func (d *livelock) noteRestart() (int, bool) {
	d.restartsSinceCommit++
	if d.level < livelockMaxLevel && d.restartsSinceCommit >= 16<<d.level {
		d.level++
		d.escalations++
		return d.level, true
	}
	return d.level, false
}

// noteCommit resets the detector: any commit is progress.
func (d *livelock) noteCommit() {
	d.restartsSinceCommit = 0
	d.level = 0
}

// jitter is the restart-backoff stream of both drivers: a seeded RNG
// behind a mutex (concurrent workers draw at once). The tick driver
// draws a backoff window in ticks for every restart; the concurrent
// driver draws capped exponential wall-clock sleeps, and only once the
// livelock detector has escalated — ordinary restarts keep the seed's
// yield-only behavior. The stream is seeded apart from the tick
// driver's scheduling stream, so backoff pressure never shifts the
// admission shuffle or victim picks.
type jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// jitterBase is the unit backoff sleep; the exponent is capped so the
// worst case stays under ~13ms.
const (
	jitterBase   = 50 * time.Microsecond
	jitterMaxExp = 8
)

// newJitter seeds the stream from the run seed. Any fixed mix works; it
// just has to differ from the scheduling stream's seed.
func newJitter(seed int64) *jitter {
	return &jitter{rng: rand.New(rand.NewSource(seed ^ 0x5DEECE66D))}
}

// ticks draws a tick-driver restart backoff: 1 + a uniform draw below
// 2^w ticks, where the window w grows with the restart count and the
// livelock escalation level (which widens it beyond the per-instance
// cap).
func (j *jitter) ticks(restarts, level int) int {
	w := min(min(restarts, 6)+level, 10)
	j.mu.Lock()
	defer j.mu.Unlock()
	return 1 + j.rng.Intn(1<<w)
}

// sleep blocks the caller for a random duration scaled by its restart
// count and the livelock escalation level; level 0 returns immediately.
func (j *jitter) sleep(restarts, level int) {
	if level <= 0 {
		return
	}
	exp := restarts
	if exp > 4 {
		exp = 4
	}
	exp += level
	if exp > jitterMaxExp {
		exp = jitterMaxExp
	}
	j.mu.Lock()
	d := time.Duration(j.rng.Int63n(int64(jitterBase) << exp))
	j.mu.Unlock()
	time.Sleep(d)
}

// DefaultWatchdog bounds progress-free wall time in the concurrent
// driver when Config.Watchdog is zero.
const DefaultWatchdog = 10 * time.Second
