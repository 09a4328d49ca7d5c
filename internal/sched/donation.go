package sched

import (
	"fmt"
	"slices"

	"relser/internal/core"
	"relser/internal/trace"
)

// donation is the lock-donation discipline Altruistic and RAL share:
// strict two-phase locking in which a held lock becomes transparent to
// an observer once its holder will not touch the object again and has
// finished the atomic unit, relative to the observer, containing its
// last access. Early access is kept safe by the wake discipline of
// [SGMA87]:
//
//   - a request that passes a released lock of donor D enters D's wake;
//   - while D is live, a wake member may not lock an object D's
//     unexecuted suffix still accesses;
//   - a requester holding a lock D's suffix needs does not enter D's
//     wake but waits for D: otherwise D would wait on that lock while
//     the requester waits on D's commit, a deadlock the waits-for graph
//     cannot see;
//   - a wake member cannot commit before D (CanCommit), and the driver's
//     dirty-data cascade aborts it if D aborts.
//
// The protocols differ in cuts, the boundaries of a holder's program
// relative to an observer (Altruistic asks for the holder's own, RAL
// for the observer's), and in graph, the certifier RAL runs between
// the lock check and the grant.
type donation struct {
	traced
	base *S2PL
	// graph certifies every lock-admitted operation; nil when the locks
	// alone guarantee serializability (Altruistic).
	graph *RSGT
	name  string
	// wakeReason formats a wake event's reason from the object and the
	// donor.
	wakeReason string
	cuts       func(holder, observer *core.Transaction) []int
	recs       map[int64]*record
}

// record is a live instance's progress through its declared program.
type record struct {
	prog     *core.Transaction
	executed int
	uses     []objUse
	// wakes lists the donors the instance is in the wake of.
	wakes []int64
}

// objUse is one object of a program: the position of its last access
// and the number of accesses not yet executed.
type objUse struct {
	object    string
	last      int
	remaining int
}

func newDonation(name, wakeReason string, cuts func(holder, observer *core.Transaction) []int) donation {
	return donation{base: NewS2PL(), name: name, wakeReason: wakeReason, cuts: cuts, recs: make(map[int64]*record)}
}

// Name implements Protocol.
func (c *donation) Name() string { return c.name }

// SetTracer installs the tracer on the protocol, its lock manager
// (whose program map feeds explanation events) and its certifier,
// whose cycle rejections surface under protocol name "rsgt".
func (c *donation) SetTracer(tr *trace.Tracer) {
	c.traced.SetTracer(tr)
	c.base.SetTracer(tr)
	if c.graph != nil {
		c.graph.SetTracer(tr)
	}
}

// Begin implements Protocol.
func (c *donation) Begin(instance int64, program *core.Transaction) {
	c.base.Begin(instance, program)
	if c.graph != nil {
		c.graph.Begin(instance, program)
	}
	r := &record{prog: program}
	for _, o := range program.Ops {
		u := r.use(o.Object)
		if u == nil {
			r.uses = append(r.uses, objUse{object: o.Object})
			u = &r.uses[len(r.uses)-1]
		}
		u.last = o.Seq
		u.remaining++
	}
	c.recs[instance] = r
}

// use returns the program's entry for object, or nil if the program
// never accesses it.
func (r *record) use(object string) *objUse {
	for i := range r.uses {
		if r.uses[i].object == object {
			return &r.uses[i]
		}
	}
	return nil
}

// needs reports whether the unexecuted suffix still accesses object.
func (r *record) needs(object string) bool {
	u := r.use(object)
	return u != nil && u.remaining > 0
}

// released reports whether holder's lock on object is transparent to
// observer: the holder will not access the object again and has
// executed past the release point, relative to observer, of its last
// access.
func (c *donation) released(holder int64, object string, observer *core.Transaction) bool {
	r := c.recs[holder]
	if r == nil {
		return false
	}
	u := r.use(object)
	if u == nil || u.remaining > 0 {
		return false
	}
	end := releaseEnd(c.cuts(r.prog, observer), r.prog.Len(), u.last)
	return end >= 0 && r.executed > end
}

// releaseEnd returns the end of the unit under cuts containing seq, the
// point after which a lock last used at seq is released, or -1 if that
// unit is the final one. The final unit never releases early: with no
// boundary after it, release would only front-run commit (and under
// absolute atomicity would break the strict-2PL degeneration).
func releaseEnd(cuts []int, length, seq int) int {
	if _, end := core.UnitBounds(cuts, length, seq); end < length-1 {
		return end
	}
	return -1
}

// Request implements Protocol.
func (c *donation) Request(req OpRequest) Decision {
	r := c.recs[req.Instance]
	for _, d := range r.wakes {
		if dr := c.recs[d]; dr != nil && dr.needs(req.Op.Object) {
			return Block
		}
	}

	st := c.base.lock(req.Op.Object)
	var effective, donors []int64
	for _, b := range c.base.conflictingHolders(st, req) {
		if c.released(b, req.Op.Object, req.Program) && !c.holdsNeeds(req.Instance, b) {
			donors = append(donors, b)
		} else {
			effective = append(effective, b)
		}
	}
	if len(effective) > 0 {
		return c.base.wait(c.name, req, effective)
	}
	if c.graph != nil {
		if d := c.graph.Request(req); d != Grant {
			return d
		}
	}

	c.base.clearWaits(req.Instance)
	c.base.acquire(st, req)
	for _, d := range donors {
		if slices.Contains(r.wakes, d) {
			continue
		}
		if c.tr.Enabled() {
			c.tr.Emit(trace.Event{
				Kind: trace.KindWake, Protocol: c.name,
				Instance: req.Instance, Txn: int(req.Op.Txn),
				Object: req.Op.Object, Blockers: []int64{d},
				Reason: fmt.Sprintf(c.wakeReason, req.Op.Object, d),
			})
		}
		r.wakes = append(r.wakes, d)
	}
	r.executed = req.Seq + 1
	r.use(req.Op.Object).remaining--
	return Grant
}

// holdsNeeds reports whether the requester holds a lock on an object
// the donor's unexecuted suffix still accesses.
func (c *donation) holdsNeeds(requester, donor int64) bool {
	dr := c.recs[donor]
	for _, obj := range c.base.heldObjects(requester) {
		if dr.needs(obj) {
			return true
		}
	}
	return false
}

// CanCommit implements Protocol: a wake member waits for its live
// donors.
func (c *donation) CanCommit(instance int64) bool {
	if r := c.recs[instance]; r != nil {
		for _, d := range r.wakes {
			if c.recs[d] != nil {
				return false
			}
		}
	}
	return c.graph == nil || c.graph.CanCommit(instance)
}

// Commit implements Protocol.
func (c *donation) Commit(instance int64) {
	delete(c.recs, instance)
	c.base.Commit(instance)
	if c.graph != nil {
		c.graph.Commit(instance)
	}
}

// Abort implements Protocol. Wake members read the victim's
// uncommitted data; the driver's cascade aborts them.
func (c *donation) Abort(instance int64) {
	delete(c.recs, instance)
	c.base.Abort(instance)
	if c.graph != nil {
		c.graph.Abort(instance)
	}
}
