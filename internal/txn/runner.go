package txn

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"relser/internal/core"
	"relser/internal/engine"
)

// Runner executes a configuration as a deterministic discrete-event
// loop over the engine pipeline: each tick it offers one operation of
// every ready instance to the protocol in a seeded random order,
// modelling concurrent clients with an open set of in-flight
// transactions bounded by the multiprogramming level. Given the same
// seed, programs and protocol, a run reproduces exactly.
//
// Programs wait for admission in an admissionQueue, which admits in
// arrival order among the programs whose backoff has expired and costs
// nothing on a tick with no free slot, so a tick's cost follows the
// live set, not the run length.
type Runner struct {
	eng *engine.Core
	// rng is the scheduling stream (tick shuffles, victim picks); restart
	// backoff draws from the engine's own stream.
	rng   *rand.Rand
	queue admissionQueue
	// ids is the tick's reusable snapshot of the live instance IDs.
	ids []int64
}

// New validates the configuration and prepares a runner.
func New(cfg Config) (*Runner, error) {
	eng, err := engine.NewCore(cfg, engine.TickClock)
	if err != nil {
		return nil, err
	}
	return &Runner{
		eng:   eng,
		rng:   rand.New(rand.NewSource(eng.Cfg.Seed)),
		queue: admissionQueue{programs: eng.Cfg.Programs},
	}, nil
}

// Run executes all programs to commit and returns the result.
func (r *Runner) Run() (*Result, error) {
	//rsvet:allow ctxflow -- ctx-less convenience wrapper: RunContext is the context-aware form
	return r.RunContext(context.Background())
}

// RunContext is Run under a context: cancellation (or deadline expiry)
// is checked at every tick boundary and unwinds all in-flight
// instances through the engine's Recover stage — effects rolled back,
// WAL abort records appended — before the run fails with the
// cancellation cause.
func (r *Runner) RunContext(ctx context.Context) (*Result, error) {
	for {
		if ctx.Err() != nil {
			cause := context.Cause(ctx)
			r.eng.AbortAll(cause.Error())
			if err := r.eng.FlushWAL(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("txn: run canceled: %w", cause)
		}
		r.admit()
		if len(r.eng.Active) == 0 && r.queue.len() == 0 {
			break
		}
		r.eng.Tick()
		if len(r.eng.Active) == 0 {
			continue // all pending programs are backing off; idle tick
		}
		progress, err := r.tick(ctx)
		if err != nil {
			return nil, err
		}
		if err := r.eng.WALErr(); err != nil {
			return nil, err
		}
		if !progress {
			// No instance made progress: victimize one active instance
			// to break the stall (protocol-level blocking deadlock or a
			// commit-order cycle). The victim is chosen at random so no
			// single program starves across repeated stalls.
			victim := r.randomVictim()
			if victim == nil {
				return nil, errors.New("txn: stalled with no active instances")
			}
			if err := r.abortCascade(victim, "stall"); err != nil {
				return nil, err
			}
		}
	}
	// Final durability barrier: async appends (begin/write/abort) must
	// be flushed — and any latched lane error surfaced — before the
	// result is declared final.
	if err := r.eng.FlushWAL(); err != nil {
		return nil, err
	}
	return r.eng.Finalize(), nil
}

// admit starts queued programs, earliest arrival first, while
// multiprogramming slots are free; a restart stays queued until its
// backoff tick.
func (r *Runner) admit() {
	now := int(r.eng.Now())
	free := r.eng.AdmitLimit() - len(r.eng.Active) // admission-controlled MPL (<= cfg.MPL)
	for ; free > 0; free-- {
		pp, ok := r.queue.pop(now)
		if !ok {
			return
		}
		r.eng.Admit(&pp)
	}
}

// tick offers one step to every active instance in seeded random
// order; it reports whether anything progressed.
func (r *Runner) tick(ctx context.Context) (bool, error) {
	r.ids = r.eng.AppendActiveIDs(r.ids[:0])
	ids := r.ids
	r.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	progress := false
	delayed := 0
	for _, id := range ids {
		if ctx.Err() != nil {
			// Canceled mid-tick: offer no more turns, so the Recover
			// stage unwinds every instance still in flight, once.
			return true, nil
		}
		st, ok := r.eng.Active[id]
		if !ok {
			continue // aborted by an earlier cascade this tick
		}
		if st.Done {
			continue // commits happen in the post-loop commit wave
		}
		v := r.eng.Check(st)
		if v.Abort == "" && v.Delay == 0 {
			v = r.eng.Step(ctx, st, r.eng.Router.Shard(st.Program.Op(st.Next).Object))
		}
		switch {
		case v.Abort != "":
			if err := r.abortCascade(st, v.Abort); err != nil {
				return false, err
			}
			progress = true
		case v.Delay > 0:
			// The scheduler "loses" this instance's turn for a tick.
			delayed++
		case !v.Blocked:
			progress = true
		}
	}
	// Commit wave: committing one instance can release another's
	// dirty-data dependency, so iterate to a fixpoint within the tick.
	// Each commit waits for its own ack before the next one publishes.
	for {
		committed := false
		r.ids = r.eng.AppendActiveIDs(r.ids[:0])
		for _, id := range r.ids {
			st, ok := r.eng.Active[id]
			if !ok || !st.Done {
				continue
			}
			if r.eng.Publish(st) {
				r.eng.AwaitAck(st)
				r.eng.Acknowledge(st)
				committed = true
				progress = true
			}
		}
		if !committed {
			break
		}
	}
	if !progress && delayed > 0 {
		// Only injected grant delays held the tick back; that is not a
		// protocol stall, so do not victimize anyone over it.
		progress = true
	}
	return progress, nil
}

// abortCascade aborts the instance through the engine and requeues
// each victim's program with randomized exponential backoff, so
// identical contenders do not re-collide in lockstep forever.
func (r *Runner) abortCascade(st *engine.Instance, reason string) error {
	return r.eng.AbortCascade(st.ID, reason, func(v *engine.Instance) error {
		restarts, level, err := r.eng.Restart(v)
		if err != nil {
			return err
		}
		readyAt := int(r.eng.Now()) + r.eng.BackoffTicks(restarts, level)
		r.queue.requeue(engine.Pending{Program: v.Program, Restarts: restarts}, readyAt)
		return nil
	})
}

// randomVictim picks a seeded-random active instance for stall
// breaking.
func (r *Runner) randomVictim() *engine.Instance {
	r.ids = r.eng.AppendActiveIDs(r.ids[:0])
	if len(r.ids) == 0 {
		return nil
	}
	return r.eng.Active[r.ids[r.rng.Intn(len(r.ids))]]
}

// admissionQueue holds the programs waiting for admission and yields
// them in arrival order — the configured programs in config order, then
// restarts in the order their cascades requeued them — passing over
// restarts whose backoff has not expired: the order a scan of one
// arrival-ordered list admits in, at O(1) per never-started program and
// O(log n) per restart. Never-started programs arrived before every
// restart and are eligible from tick 0, so they go first. A restart
// waits in backoff, by ready tick, and moves to ready, by arrival, once
// its tick has come: it must not overtake an eligible restart that
// arrived before it but came due later.
type admissionQueue struct {
	programs []*core.Transaction
	next     int // programs[next:] have never started
	backoff  restartHeap
	ready    restartHeap
	seq      int // arrival number of the next restart
}

// restart is a requeued program. key orders it in the heap it sits in:
// its ready tick in backoff, its arrival number seq in ready.
type restart struct {
	engine.Pending
	key, seq int
}

// len returns the number of programs waiting.
func (q *admissionQueue) len() int {
	return len(q.programs) - q.next + len(q.backoff) + len(q.ready)
}

// requeue queues a restarted program, eligible from tick readyAt on.
func (q *admissionQueue) requeue(pp engine.Pending, readyAt int) {
	q.backoff.push(restart{Pending: pp, key: readyAt, seq: q.seq})
	q.seq++
}

// pop removes and returns the earliest-arrived program eligible at tick
// now; ok is false when none is.
func (q *admissionQueue) pop(now int) (pp engine.Pending, ok bool) {
	if q.next < len(q.programs) {
		q.next++
		return engine.Pending{Program: q.programs[q.next-1]}, true
	}
	for len(q.backoff) > 0 && q.backoff[0].key <= now {
		rs := q.backoff.pop()
		rs.key = rs.seq
		q.ready.push(rs)
	}
	if len(q.ready) == 0 {
		return engine.Pending{}, false
	}
	return q.ready.pop().Pending, true
}

// restartHeap is a binary min-heap on restart.key.
type restartHeap []restart

func (h *restartHeap) push(x restart) {
	s := append(*h, x)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].key <= s[i].key {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *restartHeap) pop() restart {
	s := *h
	top, n := s[0], len(s)-1
	s[0], s[n] = s[n], restart{}
	s = s[:n]
	for i := 0; ; {
		m := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < n && s[c].key < s[m].key {
				m = c
			}
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}
