// Package fault is a seeded, deterministic fault injector. Subsystems
// register named fault points (the WAL's torn-write path, the store's
// read latch, the drivers' grant path) and consult the injector at
// each; the injector decides — as a pure function of its seed, the
// point name and the point's call index — whether the fault fires.
//
// Determinism is the design center: the n-th consultation of a point
// fires (or not) identically across runs with the same seed and spec,
// regardless of what other points do in between. Under the
// deterministic driver this makes whole chaos runs replay
// byte-identically; under the concurrent driver the per-point firing
// schedule is still a function of call index alone, so a run's
// recorded schedule (Schedule, Fingerprint) fully identifies which
// faults it saw.
//
// Fault specs use a small grammar, one rule per point:
//
//	point:rate[:duration][,point:rate[:duration]...]
//
// e.g. "wal.torn:0.01,txn.abort:0.05,store.read.delay:0.1:2ms".
// Rate is a firing probability in [0,1]; the optional duration
// parameterizes latency-style faults.
package fault

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SleepCtx sleeps for d or until ctx is canceled, whichever comes
// first. Injected stalls (store latches, shard stalls, grant delays)
// sleep through it so a canceled run stops paying for fault latency it
// no longer cares about. A nil ctx sleeps the full duration.
func SleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if ctx == nil {
		time.Sleep(d)
		return
	}
	//rsvet:allow detlint -- realizes injector-scheduled latency; the duration is decided deterministically and the elapsed time feeds no decision
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Point names one fault-injection site.
type Point string

// The registered fault points. Adding a point here (and wiring the
// consultation into its subsystem) is all a new fault needs.
const (
	// WALTorn tears the tail: the record's frame is written only
	// partially, then the log reports an injected crash.
	WALTorn Point = "wal.torn"
	// WALCorrupt silently flips a bit in the record's payload before
	// writing; the log keeps running (a lying disk).
	WALCorrupt Point = "wal.corrupt"
	// WALCrash stops the log cleanly at a record boundary and reports
	// an injected crash.
	WALCrash Point = "wal.crash"
	// WALRotateCrash crashes the log during segment rotation: after the
	// next segment is created and header-synced but before it is
	// published, leaving an unpublished file recovery must ignore.
	WALRotateCrash Point = "wal.rotate.crash"
	// WALGroupPartial crashes the log mid group commit: the batch's
	// earlier frames reach the device, the firing frame is cut short at
	// an arbitrary byte — the multi-record analogue of wal.torn.
	WALGroupPartial Point = "wal.group.partial"
	// StoreReadDelay stalls a store read under its stripe latch.
	StoreReadDelay Point = "store.read.delay"
	// StoreWriteDelay stalls a store write under its stripe latch.
	StoreWriteDelay Point = "store.write.delay"
	// ShardStall stalls the concurrent driver's execution path while
	// holding the target shard's lock.
	ShardStall Point = "shard.stall"
	// ShardWedge blocks the execution path indefinitely while holding
	// the shard lock, until Release is called (the stall watchdog
	// releases it when it fires). Without a watchdog a wedge hangs the
	// run — that is the scenario the watchdog exists for.
	ShardWedge Point = "shard.wedge"
	// SchedGrantDelay defers an operation the protocol would have been
	// asked about: the driver treats the request as delayed and retries.
	SchedGrantDelay Point = "sched.grant.delay"
	// TxnForcedAbort victimizes the requesting transaction instance
	// (with its full dirty-read cascade).
	TxnForcedAbort Point = "txn.abort"
)

// Points returns every registered fault point, sorted.
func Points() []Point {
	pts := []Point{
		WALTorn, WALCorrupt, WALCrash,
		WALRotateCrash, WALGroupPartial,
		StoreReadDelay, StoreWriteDelay,
		ShardStall, ShardWedge,
		SchedGrantDelay, TxnForcedAbort,
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return pts
}

// ErrCrash is the sticky error an injected crash surfaces (torn or
// clean WAL crash). Drivers propagate it as the run error; harnesses
// match it with errors.Is to distinguish an injected crash — whose
// recovery path is then certified — from a real failure.
var ErrCrash = errors.New("fault: injected crash")

// defaultDelay parameterizes latency-style points with no explicit
// duration in the spec.
const defaultDelay = 500 * time.Microsecond

// Rule arms one fault point.
type Rule struct {
	Point Point
	// Rate is the firing probability per consultation, in [0,1].
	Rate float64
	// Param parameterizes latency-style faults (stall duration).
	Param time.Duration
}

// Spec is a parsed fault specification: the set of armed points.
type Spec struct {
	Rules []Rule
}

// ParseSpec parses the "point:rate[:duration],..." grammar. Unknown
// points, malformed rates and duplicate points are errors.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	known := make(map[Point]bool)
	for _, p := range Points() {
		known[p] = true
	}
	seen := make(map[Point]bool)
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		parts := strings.Split(field, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return Spec{}, fmt.Errorf("fault: rule %q is not point:rate[:duration]", field)
		}
		p := Point(strings.TrimSpace(parts[0]))
		if !known[p] {
			return Spec{}, fmt.Errorf("fault: unknown fault point %q (have %s)", p, joinPoints())
		}
		if seen[p] {
			return Spec{}, fmt.Errorf("fault: duplicate rule for point %q", p)
		}
		seen[p] = true
		rate, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		// NaN passes both range tests and then fires on every
		// consultation; reject it explicitly.
		if err != nil || math.IsNaN(rate) || rate < 0 || rate > 1 {
			return Spec{}, fmt.Errorf("fault: rate %q for point %q is not a probability in [0,1]", parts[1], p)
		}
		rule := Rule{Point: p, Rate: rate}
		if len(parts) == 3 {
			d, err := time.ParseDuration(strings.TrimSpace(parts[2]))
			if err != nil || d < 0 {
				return Spec{}, fmt.Errorf("fault: duration %q for point %q: %v", parts[2], p, err)
			}
			rule.Param = d
		}
		spec.Rules = append(spec.Rules, rule)
	}
	sort.Slice(spec.Rules, func(i, j int) bool { return spec.Rules[i].Point < spec.Rules[j].Point })
	return spec, nil
}

// MustParseSpec is ParseSpec for compile-time-known specs; it panics
// on error.
func MustParseSpec(s string) Spec {
	spec, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// String renders the spec in canonical (parseable, sorted) form.
func (s Spec) String() string {
	out := make([]string, 0, len(s.Rules))
	for _, r := range s.Rules {
		f := fmt.Sprintf("%s:%g", r.Point, r.Rate)
		if r.Param > 0 {
			f += ":" + r.Param.String()
		}
		out = append(out, f)
	}
	return strings.Join(out, ",")
}

func joinPoints() string {
	pts := Points()
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = string(p)
	}
	return strings.Join(out, " ")
}

// pointState tracks one armed point's consultations.
type pointState struct {
	rule  Rule
	calls atomic.Int64
	fired atomic.Int64
	mu    sync.Mutex
	// firedAt records the call indices that fired (capped; the full
	// set is folded into the fingerprint hash).
	firedAt []int64
	firedH  uint64
}

// Injector decides fault firings. All methods are safe for concurrent
// use and safe on a nil receiver (a nil *Injector never fires), so
// call sites need no guards.
type Injector struct {
	seed   int64
	spec   Spec
	points map[Point]*pointState

	releaseOnce sync.Once
	released    chan struct{}
}

// scheduleCap bounds the per-point stored firing indices; counts and
// the fingerprint always cover every firing.
const scheduleCap = 4096

// New returns an injector armed with the spec's rules, drawing
// deterministically from the seed.
func New(seed int64, spec Spec) *Injector {
	in := &Injector{
		seed:     seed,
		spec:     spec,
		points:   make(map[Point]*pointState, len(spec.Rules)),
		released: make(chan struct{}),
	}
	for _, r := range spec.Rules {
		ps := &pointState{rule: r, firedH: fnvOffset}
		in.points[r.Point] = ps
	}
	return in
}

// Spec returns the armed spec.
func (in *Injector) Spec() Spec {
	if in == nil {
		return Spec{}
	}
	return in.spec
}

// Active reports whether the point is armed (useful to skip expensive
// setup around an unarmed point).
func (in *Injector) Active(p Point) bool {
	if in == nil {
		return false
	}
	_, ok := in.points[p]
	return ok
}

// Fire consults the point: the call increments the point's call index
// and reports whether the fault fires at that index. The decision is a
// pure function of (seed, point, index).
func (in *Injector) Fire(p Point) bool {
	fired, _ := in.fire(p)
	return fired
}

// FireCut is Fire plus a deterministic cut in [0,n) drawn from the
// same consultation, for faults that need a size (how many bytes of a
// torn record survive). n must be positive.
func (in *Injector) FireCut(p Point, n int) (bool, int) {
	fired, h := in.fire(p)
	if !fired || n <= 0 {
		return fired, 0
	}
	return true, int((h >> 17) % uint64(n))
}

func (in *Injector) fire(p Point) (bool, uint64) {
	if in == nil {
		return false, 0
	}
	ps, ok := in.points[p]
	if !ok {
		return false, 0
	}
	n := ps.calls.Add(1)
	h := splitmix64(uint64(in.seed) ^ pointHash(p) ^ uint64(n)*0x9E3779B97F4A7C15)
	// 53 high bits give a uniform float in [0,1).
	if float64(h>>11)/(1<<53) >= ps.rule.Rate {
		return false, h
	}
	ps.fired.Add(1)
	ps.mu.Lock()
	if len(ps.firedAt) < scheduleCap {
		ps.firedAt = append(ps.firedAt, n)
	}
	ps.firedH = fnvMix(ps.firedH, uint64(n))
	ps.mu.Unlock()
	return true, h
}

// Latency returns the point's stall duration (its Param, defaulted for
// armed latency points with none given).
func (in *Injector) Latency(p Point) time.Duration {
	if in == nil {
		return 0
	}
	ps, ok := in.points[p]
	if !ok {
		return 0
	}
	if ps.rule.Param > 0 {
		return ps.rule.Param
	}
	return defaultDelay
}

// WedgeCtx blocks until Release is called or ctx is canceled,
// whichever comes first. The concurrent driver's shard-wedge fault
// point parks here, modeling a worker wedged inside the execution
// path; the stall watchdog calls Release when it fires, and run
// cancellation (a -timeout deadline, a watchdog escalation) unwedges
// workers without a separate release channel per run.
func (in *Injector) WedgeCtx(ctx context.Context) {
	if in == nil {
		return
	}
	select {
	case <-in.released:
	case <-ctx.Done():
	}
}

// Release unwedges every current and future WedgeCtx call. Idempotent.
func (in *Injector) Release() {
	if in == nil {
		return
	}
	in.releaseOnce.Do(func() { close(in.released) })
}

// PointSchedule summarizes one point's firings.
type PointSchedule struct {
	Point Point `json:"point"`
	// Calls is the number of consultations; Fired how many fired.
	Calls int64 `json:"calls"`
	Fired int64 `json:"fired"`
	// FiredAt lists the call indices that fired (capped at 4096; the
	// fingerprint covers all of them).
	FiredAt []int64 `json:"fired_at,omitempty"`
}

// Schedule returns the full firing schedule so far, sorted by point.
func (in *Injector) Schedule() []PointSchedule {
	if in == nil {
		return nil
	}
	out := make([]PointSchedule, 0, len(in.points))
	for p, ps := range in.points {
		ps.mu.Lock()
		fired := append([]int64(nil), ps.firedAt...)
		ps.mu.Unlock()
		out = append(out, PointSchedule{
			Point: p, Calls: ps.calls.Load(), Fired: ps.fired.Load(), FiredAt: fired,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// Fingerprint identifies the firing schedule: equal fingerprints mean
// every armed point was consulted the same number of times and fired
// at exactly the same call indices.
func (in *Injector) Fingerprint() string {
	if in == nil {
		return "none"
	}
	h := uint64(fnvOffset)
	for _, s := range in.Schedule() {
		h = fnvMix(h, pointHash(s.Point))
		h = fnvMix(h, uint64(s.Calls))
		h = fnvMix(h, uint64(s.Fired))
		ps := in.points[s.Point]
		ps.mu.Lock()
		h = fnvMix(h, ps.firedH)
		ps.mu.Unlock()
	}
	return fmt.Sprintf("%016x", h)
}

const fnvOffset = 14695981039346656037

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	return h
}

func pointHash(p Point) uint64 {
	h := fnv.New64a()
	h.Write([]byte(p))
	return h.Sum64()
}

// splitmix64 is the SplitMix64 mixer; a full-avalanche bijection, so
// per-index draws are effectively independent uniform samples.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
