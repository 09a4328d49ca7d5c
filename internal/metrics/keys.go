package metrics

// canonicalKeys is the registry of metric names the system emits.
// Every literal key passed to Registry.Counter/Gauge/Histogram in
// non-test code must appear here; the rsvet registrydrift analyzer
// enforces that statically, so a typo in a dashboard-facing key is a
// compile-gate failure instead of a silently empty time series.
//
// Dynamically formatted per-shard keys (txn.shard%02d.blocks,
// txn.shard%02d.wait_seconds) are outside the literal check; their
// prefixes are registered here so tooling can still recognize them.
var canonicalKeys = []string{
	"txn.ops_executed",
	"txn.committed",
	"txn.aborts",
	"txn.blocks",
	"txn.restarts",
	"txn.commit_waits",
	"txn.recoverability_aborts",
	"txn.active",
	"txn.latency",
	"txn.block_latency",
	"txn.deadline_aborts",
	"txn.injected_aborts",
	"txn.injected_delays",
	"txn.load_sheds",
	"txn.livelock_escalations",
	"txn.watchdog_wedges",
	"txn.cancel_aborts",
	"txn.degraded",
	"txn.effective_mpl",
	"txn.wakeups",
	"txn.cond.broadcast_shard",
	"txn.cond.broadcast_global",
	"txn.cond.broadcast_flood",

	// Segmented WAL (internal/storage): group-commit durability lanes.
	// Per-lane histograms (wal.shardNN.fsync_seconds,
	// wal.shardNN.batch_records) ride the "wal.shard" dynamic prefix.
	"wal.appends",
	"wal.fsyncs",
	"wal.rotations",
	"wal.group_commits",

	// Observability plane (internal/obs): flight-recorder ring, span
	// table, SSE tail and automatic dump triggers.
	"obs.ring_recorded",
	"obs.ring_drops",
	"obs.spans_live",
	"obs.spans_completed",
	"obs.sse_subscribers",
	"obs.sse_dropped",
	"obs.dump_triggers",

	// Recording layer (internal/record): .rsrec artifact emission.
	"record.frames",
	"record.bytes",

	// Bounded-memory certification (internal/sched): RSG retirement
	// epochs and the vector-clock fast path.
	"sched.rsg.live_vertices",
	"sched.rsg.retired_total",
	"sched.rsg.retire_epochs",
	"sched.rsg.fastpath_hits",
	"sched.rsg.fastpath_misses",
}

// DynamicKeyPrefixes lists the prefixes of keys built with fmt.Sprintf
// at registration time: the concurrent driver's per-shard instruments
// and the ops endpoint's per-route request counters. The obs prefix is
// deliberately "obs.http." rather than "obs." so the static obs.* keys
// above stay under the registrydrift literal check.
var DynamicKeyPrefixes = []string{"txn.shard", "obs.http.", "wal.shard"}

// IsKnownKey reports whether name is a canonical key or carries a
// registered dynamic prefix.
func IsKnownKey(name string) bool {
	for _, k := range canonicalKeys {
		if name == k {
			return true
		}
	}
	for _, p := range DynamicKeyPrefixes {
		if len(name) > len(p) && name[:len(p)] == p {
			return true
		}
	}
	return false
}
