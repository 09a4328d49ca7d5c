// Package record is the deterministic record/replay layer: it captures
// one run of the engine pipeline — the admitted traffic (as workload
// build parameters, which rebuild the exact programs), the protocol and
// driver configuration, the fault spec and seed, the engine's per-stage
// lifecycle log, and the run's outcome (certification verdict, final
// store, WAL hash, fault fingerprint) — into a CRC-framed, versioned,
// append-only .rsrec artifact anchored to a storage snapshot of the
// initial state.
//
// Because the deterministic driver is a pure function of (programs,
// protocol, seed) and the fault injector a pure function of (seed,
// point, call index), a recording replays byte-identically: Replay
// re-executes the run through the same pipeline and asserts identical
// certification verdicts, WAL bytes, stage log and final store.
// Backfill mode re-runs the same traffic under a different atomicity
// spec, protocol or shard count and reports the divergence — verdict
// flips, per-object state diffs, abort-class changes — turning every
// incident into a regression scenario ("replay yesterday's wedge with
// -shards 16").
//
// Artifact format (.rsrec):
//
//	[magic "RSRC"][version u8][pad3]                      8-byte header
//	frames: [size u32][crc u32][payload]                  CRC32-Castagnoli over payload
//	payload: [type u8][body]
//
// Frame types, in file order: manifest (JSON Manifest), snapshot
// (storage.EncodeSnapshot of the initial store), zero or more stage
// frames (JSON StageEvent, one per engine lifecycle crossing), outcome
// (JSON Outcome). Like the WAL and segment formats, every byte-prefix
// of a valid artifact decodes to a frame-prefix: a torn tail truncates,
// it never invents or alters a frame.
package record

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"relser/internal/engine"
	"relser/internal/fault"
	"relser/internal/metrics"
	"relser/internal/obs"
	"relser/internal/storage"
	"relser/internal/trace"
	"relser/internal/txn"
	"relser/internal/workload"
)

// Artifact header. Only the version this build writes decodes.
const (
	recMagic   = "RSRC"
	recVersion = 2
	headerSize = 8
)

// Frame types.
const (
	frameManifest byte = iota + 1
	frameSnapshot
	frameStage
	frameOutcome
)

// ErrUnreadable reports an artifact that cannot be decoded: bad magic,
// unsupported version, checksum failure, or a missing mandatory frame.
// rsreplay maps it to exit status 4.
var ErrUnreadable = errors.New("record: unreadable recording")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Manifest is the recording header: everything needed to rebuild the
// run's configuration, including the fault spec and seed (so the
// artifact is self-describing — the same convention the obs plane
// stamps into flight dumps).
type Manifest struct {
	Format int `json:"format"`
	// Workload rebuilds the exact programs, oracle, semantics, initial
	// values and invariant (workload.Build).
	Workload workload.BuildParams `json:"workload"`
	Protocol string               `json:"protocol"`
	// Seed drives the driver's admission shuffle and, mixed, the
	// restart-backoff stream.
	Seed        int64 `json:"seed"`
	MPL         int   `json:"mpl"`
	Shards      int   `json:"shards,omitempty"`
	MaxRestarts int   `json:"max_restarts,omitempty"`
	// Concurrent marks a goroutine-driver run. Only deterministic
	// (tick-driver) recordings replay byte-identically; concurrent
	// recordings replay outcome-compatibly (same outcome class, same
	// commit count, same verdict).
	Concurrent bool          `json:"concurrent,omitempty"`
	Deadline   int64         `json:"deadline,omitempty"`
	Watchdog   time.Duration `json:"watchdog,omitempty"`
	// FaultSpec and FaultSeed re-arm the injector on replay; the firing
	// schedule is a pure function of (seed, point, call index).
	FaultSpec string `json:"fault_spec,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
	// WALMode records the durability shape so replay reproduces the
	// same byte stream: "" (no WAL) or "segmented" (the group-commit log
	// rotating at WALSegmentBytes). The log has one lane: WALShards is
	// 0 or 1 in every replayable recording, and replay refuses more.
	WALMode         string `json:"wal_mode,omitempty"`
	WALShards       int    `json:"wal_shards,omitempty"`
	WALSegmentBytes int64  `json:"wal_segment_bytes,omitempty"`
}

// Stage names one recorded engine lifecycle crossing. The recorded
// stages form a closed registry (Stages); the registrydrift analyzer
// validates Stage-typed string literals against it, so a typo cannot
// silently produce a stage name replay will never match.
type Stage string

// The registered recording stages.
const (
	StageAdmit   Stage = "admit"
	StageCommit  Stage = "commit"
	StageAbort   Stage = "abort"
	StageRecover Stage = "recover"
)

// Stages returns the registered recording stages.
func Stages() []Stage {
	return []Stage{StageAdmit, StageCommit, StageAbort, StageRecover}
}

// StageEvent is one engine lifecycle crossing captured by the
// recording tap. Only the rare stages are recorded (admit, commit,
// abort, recover) — the tap leaves the per-operation stages as nil
// hook fields, one nil check each.
type StageEvent struct {
	Stage    Stage `json:"stage"`
	Instance int64 `json:"instance,omitempty"`
	Txn      int   `json:"txn,omitempty"`
	Restarts int   `json:"restarts,omitempty"`
}

// Outcome is the recorded end state of the run, the baseline replay
// compares against.
type Outcome struct {
	// Outcome classifies how the run ended: completed | crashed
	// (fault.ErrCrash) | wedged (*engine.WedgeError) | canceled |
	// error.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// Verdict is the Theorem 1 certification of the committed schedule:
	// "pass", or the RSG cycle diagnosis. Empty when the run did not
	// complete.
	Verdict string `json:"verdict,omitempty"`
	// Invariant is the workload data-invariant check on the final
	// store: "pass" or the violation. Empty when not checked.
	Invariant string `json:"invariant,omitempty"`

	Committed      int `json:"committed"`
	Aborts         int `json:"aborts"`
	Restarts       int `json:"restarts"`
	InjectedAborts int `json:"injected_aborts,omitempty"`
	InjectedDelays int `json:"injected_delays,omitempty"`
	LoadSheds      int `json:"load_sheds,omitempty"`
	DeadlineAborts int `json:"deadline_aborts,omitempty"`
	CancelAborts   int `json:"cancel_aborts,omitempty"`

	// FaultFingerprint and FaultSchedule identify the realized firing
	// schedule (fault.Injector); equal fingerprints mean every armed
	// point fired at exactly the same call indices.
	FaultFingerprint string                `json:"fault_fingerprint,omitempty"`
	FaultSchedule    []fault.PointSchedule `json:"fault_schedule,omitempty"`

	// WALHash/WALLen fingerprint the emitted log bytes (FNV-1a 64);
	// empty when the run carried no WAL.
	WALHash string `json:"wal_hash,omitempty"`
	WALLen  int    `json:"wal_len,omitempty"`

	// StageHash fingerprints the stage log (order-sensitive).
	StageHash string `json:"stage_hash,omitempty"`

	// Final is the final store snapshot.
	Final map[string]storage.Value `json:"final,omitempty"`
}

// Observers are the sinks a caller may attach to an execution Record
// drives: they watch the run and never steer it, so the recording is the
// same with or without them. Obs wires in through obs.Plane.Attach, as
// workload.RunOptions.Obs does.
type Observers struct {
	Tracer  *trace.Tracer
	Metrics *metrics.Registry
	Obs     *obs.Plane
}

// Recorder buffers one run's recording. Attach its Hooks to the run's
// config (or workload.RunOptions.Hooks), call Finish when the run
// returns, then WriteFile. The stage tap appends to a slice under a
// mutex — safe under the concurrent driver, and cheap enough that
// recording stays well under the observability plane's overhead
// budget.
type Recorder struct {
	mu      sync.Mutex
	m       Manifest
	initial map[string]storage.Value
	stages  []StageEvent
	outcome *Outcome
	wal     []byte
	set     *storage.SegmentSet

	framesC *metrics.Counter
	bytesC  *metrics.Counter
}

// NewRecorder starts a recording described by the manifest.
func NewRecorder(m Manifest) *Recorder {
	m.Format = recVersion
	return &Recorder{m: m}
}

// SetMetrics attaches a registry: frame and byte counts land under
// record.frames / record.bytes so the ops endpoint can report recording
// progress live.
func (r *Recorder) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	r.mu.Lock()
	r.framesC = reg.Counter("record.frames")
	r.bytesC = reg.Counter("record.bytes")
	r.mu.Unlock()
}

// SetInitial anchors the recording to the run's initial store snapshot
// (taken after Workload.Initial is loaded). Replay restores from this
// anchor, so a recording replays without re-deriving state from any
// longer history.
func (r *Recorder) SetInitial(snap map[string]storage.Value) {
	cp := make(map[string]storage.Value, len(snap))
	//rsvet:allow detlint -- order-insensitive: map copy; the codec sorts keys when encoding
	for k, v := range snap {
		cp[k] = v
	}
	r.mu.Lock()
	r.initial = cp
	r.mu.Unlock()
}

// SetWALBytes records the run's emitted log bytes (the segmented log
// flattened with FlattenSegmentSet). Only the hash and length are
// persisted.
func (r *Recorder) SetWALBytes(b []byte) {
	r.mu.Lock()
	r.wal = append([]byte(nil), b...)
	r.mu.Unlock()
}

// WAL returns the run's emitted log bytes as given to SetWALBytes (what
// WALHash fingerprints). Like Segments it is a read-only view for
// post-run certification (the chaos experiment's prefix sweeps), not
// part of the artifact.
func (r *Recorder) WAL() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wal
}

// Segments returns the log's crash image that WAL was flattened from;
// nil when the run carried no WAL.
func (r *Recorder) Segments() *storage.SegmentSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.set
}

// Hooks chains the recording tap in front of next on the rare
// lifecycle stages (Admit, Commit, Abort, Recover); the per-operation
// stages keep costing the engine one nil check.
func (r *Recorder) Hooks(next txn.Hooks) txn.Hooks {
	h := next
	h.Admit = chainHook(func(st *engine.Instance) { r.stage(StageAdmit, st) }, next.Admit)
	h.Commit = chainHook(func(st *engine.Instance) { r.stage(StageCommit, st) }, next.Commit)
	h.Abort = chainHook(func(st *engine.Instance) { r.stage(StageAbort, st) }, next.Abort)
	prevRecover := next.Recover
	h.Recover = func() {
		r.mu.Lock()
		r.stages = append(r.stages, StageEvent{Stage: StageRecover})
		r.mu.Unlock()
		if prevRecover != nil {
			prevRecover()
		}
	}
	return h
}

func chainHook(first, then func(*engine.Instance)) func(*engine.Instance) {
	if then == nil {
		return first
	}
	return func(st *engine.Instance) {
		first(st)
		then(st)
	}
}

func (r *Recorder) stage(name Stage, st *engine.Instance) {
	ev := StageEvent{Stage: name, Instance: st.ID, Restarts: st.Restarts}
	if st.Program != nil {
		ev.Txn = int(st.Program.ID)
	}
	r.mu.Lock()
	r.stages = append(r.stages, ev)
	r.mu.Unlock()
}

// Outcome returns the sealed outcome; ok is false before Finish.
func (r *Recorder) Outcome() (Outcome, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.outcome == nil {
		return Outcome{}, false
	}
	return *r.outcome, true
}

// StageEvents returns the number of stage crossings captured so far
// (live recording status for /healthz).
func (r *Recorder) StageEvents() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.stages))
}

// Finish seals the recording with the run's outcome: the result
// counters, the Theorem 1 verdict and invariant check, the fault
// fingerprint and schedule, and the final store snapshot. Safe to call
// with a nil result (failed runs record their error class) and a nil
// injector or store.
func (r *Recorder) Finish(res *txn.Result, runErr error, inj *fault.Injector, store *storage.Store, w *workload.Workload) {
	var final map[string]storage.Value
	if store != nil {
		final = store.Snapshot()
	}
	r.mu.Lock()
	stages := r.stages
	wal := r.wal
	r.mu.Unlock()
	out := buildOutcome(res, runErr, inj, final, wal, stages, w)
	r.mu.Lock()
	r.outcome = &out
	r.mu.Unlock()
}

// buildOutcome assembles an Outcome; Replay uses the same constructor
// for the replayed run, so recorded and replayed baselines are always
// directly comparable.
func buildOutcome(res *txn.Result, runErr error, inj *fault.Injector, final map[string]storage.Value, wal []byte, stages []StageEvent, w *workload.Workload) Outcome {
	out := Outcome{Final: final}
	out.Outcome, out.Error = classifyErr(runErr)
	if res != nil {
		out.Committed = res.Committed
		out.Aborts = res.Aborts
		out.Restarts = res.Restarts
		out.InjectedAborts = res.InjectedAborts
		out.InjectedDelays = res.InjectedDelays
		out.LoadSheds = res.LoadSheds
		out.DeadlineAborts = res.DeadlineAborts
		out.CancelAborts = res.CancelAborts
		if runErr == nil {
			if err := res.Verify(); err != nil {
				out.Verdict = err.Error()
			} else {
				out.Verdict = "pass"
			}
		}
	}
	if runErr == nil && w != nil && w.Invariant != nil && final != nil {
		if err := w.Invariant(final); err != nil {
			out.Invariant = err.Error()
		} else {
			out.Invariant = "pass"
		}
	}
	if inj != nil {
		out.FaultFingerprint = inj.Fingerprint()
		out.FaultSchedule = inj.Schedule()
	}
	if wal != nil {
		out.WALHash = hashBytes(wal)
		out.WALLen = len(wal)
	}
	out.StageHash = hashStages(stages)
	return out
}

// classifyErr maps a run error to its outcome class. The class — not
// the message — is what replay compares: a *engine.WedgeError's text
// embeds wall-clock durations that legitimately vary across replays of
// the same wedge.
func classifyErr(runErr error) (string, string) {
	var we *engine.WedgeError
	switch {
	case runErr == nil:
		return "completed", ""
	case errors.Is(runErr, fault.ErrCrash):
		return "crashed", runErr.Error()
	case errors.As(runErr, &we):
		return "wedged", runErr.Error()
	case errors.Is(runErr, context.DeadlineExceeded) || errors.Is(runErr, context.Canceled):
		return "canceled", runErr.Error()
	default:
		return "error", runErr.Error()
	}
}

func hashBytes(b []byte) string {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

// hashStages fingerprints the stage log, order-sensitively.
func hashStages(stages []StageEvent) string {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	for _, ev := range stages {
		for _, c := range []byte(ev.Stage) {
			h ^= uint64(c)
			h *= 1099511628211
		}
		mix(uint64(ev.Instance))
		mix(uint64(ev.Txn))
		mix(uint64(ev.Restarts))
	}
	return fmt.Sprintf("%016x", h)
}

// FlattenSegmentSet serializes the log's segments, in chain order, into
// one byte string for WAL fingerprinting, the same flattening the chaos
// experiments use for byte-identical replay comparison. Each segment
// is prefixed by its lane (always 0) and its length.
func FlattenSegmentSet(set *storage.SegmentSet) []byte {
	if set == nil {
		return nil
	}
	var out []byte
	for _, seg := range set.Shards[0] {
		out = binary.LittleEndian.AppendUint32(out, 0)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(seg)))
		out = append(out, seg...)
	}
	return out
}
