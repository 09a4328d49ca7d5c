package main

// metricDef names one reported number. BENCHMARK.json carries the same
// lists; TestManifestMatches keeps the two from drifting apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the stack sees. Every workload reports
// every one of them and none is ever zero, so each carries the share of
// the parent's median by which it may worsen before a change counts as
// a regression. Rates and memory are medians over the timed reps of a
// run; latency percentiles are taken over the pooled per-transaction
// samples of all timed reps. The bounds are what the shared sandbox can
// keep (README.md, "Bounds"), not what one would like.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_tps", "txn/s", "higher", 0.25},
	{"commit_latency_p50_ms", "ms", "lower", 0.25},
	{"commit_latency_p99_ms", "ms", "lower", 0.25},
	{"attempts_per_commit", "ratio", "lower", 0.10},
	{"alloc_kb_per_txn", "KiB", "lower", 0.25},
	{"retained_mb", "MiB", "lower", 0.25},
}

// perLayer comes from the traced reps only: spans and counts taken at
// the layer boundaries by the decorators and hooks in trace.go, plus
// direct timed calls into the layers that cannot be intercepted
// (micro.go). A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{Name: "workload.generate_s", Unit: "s", Better: "lower"},
	{Name: "workload.programs", Unit: "count", Better: "higher"},
	{Name: "workload.ops", Unit: "count", Better: "higher"},

	{Name: "txn.driver_self_s", Unit: "s", Better: "lower"},
	{Name: "txn.driver_self_share", Unit: "ratio", Better: "lower"},
	{Name: "txn.ticks", Unit: "count", Better: "lower"},
	{Name: "txn.blocks", Unit: "count", Better: "lower"},
	{Name: "txn.commit_waits", Unit: "count", Better: "lower"},

	{Name: "engine.issue_wait_s", Unit: "s", Better: "lower"},
	{Name: "engine.admit_s", Unit: "s", Better: "lower"},
	{Name: "engine.decide_s", Unit: "s", Better: "lower"},
	{Name: "engine.decide_self_s", Unit: "s", Better: "lower"},
	{Name: "engine.apply_s", Unit: "s", Better: "lower"},
	{Name: "engine.commit_s", Unit: "s", Better: "lower"},
	{Name: "engine.commit_self_s", Unit: "s", Better: "lower"},
	{Name: "engine.abort_s", Unit: "s", Better: "lower"},
	{Name: "engine.aborts", Unit: "count", Better: "lower"},

	{Name: "sched.request_s", Unit: "s", Better: "lower"},
	{Name: "sched.requests", Unit: "count", Better: "lower"},
	{Name: "sched.request_us_p50", Unit: "us", Better: "lower"},
	{Name: "sched.request_us_p99", Unit: "us", Better: "lower"},
	{Name: "sched.request_drift", Unit: "ratio", Better: "lower"},
	{Name: "sched.begin_s", Unit: "s", Better: "lower"},
	{Name: "sched.can_commit_s", Unit: "s", Better: "lower"},
	{Name: "sched.commit_s", Unit: "s", Better: "lower"},
	{Name: "sched.abort_s", Unit: "s", Better: "lower"},
	{Name: "sched.low_water_s", Unit: "s", Better: "lower"},
	{Name: "sched.grants", Unit: "count", Better: "higher"},
	{Name: "sched.blocks", Unit: "count", Better: "lower"},
	{Name: "sched.aborts", Unit: "count", Better: "lower"},
	{Name: "sched.grant_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sched.restart_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sched.fastpath_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sched.fastpath_misses", Unit: "count", Better: "lower"},
	{Name: "sched.retire_epochs", Unit: "count", Better: "lower"},
	{Name: "sched.retired_vertices", Unit: "count", Better: "higher"},
	{Name: "sched.peak_live_vertices", Unit: "count", Better: "lower"},
	{Name: "sched.peak_exec_entries", Unit: "count", Better: "lower"},
	{Name: "sched.retire_pause_us_max", Unit: "us", Better: "lower"},

	{Name: "graph.append_arc_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.add_arc_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.retire_ns_per_vertex", Unit: "ns", Better: "lower"},
	{Name: "graph.find_path_us", Unit: "us", Better: "lower"},

	{Name: "core.certify_ops_per_s", Unit: "op/s", Better: "higher"},
	{Name: "core.schedule_build_s", Unit: "s", Better: "lower"},
	{Name: "core.depends_s", Unit: "s", Better: "lower"},
	{Name: "core.rsg_build_s", Unit: "s", Better: "lower"},
	{Name: "core.rsg_acyclic_s", Unit: "s", Better: "lower"},
	{Name: "core.rsg_arcs", Unit: "count", Better: "lower"},
	{Name: "core.depends_pairs", Unit: "count", Better: "lower"},

	{Name: "storage.store.reads", Unit: "count", Better: "lower"},
	{Name: "storage.store.writes", Unit: "count", Better: "lower"},
	{Name: "storage.store.read_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.store.write_ns", Unit: "ns", Better: "lower"},

	{Name: "storage.wal.appends", Unit: "count", Better: "lower"},
	{Name: "storage.wal.append_s", Unit: "s", Better: "lower"},
	{Name: "storage.wal.append_sync_s", Unit: "s", Better: "lower"},
	{Name: "storage.wal.append_sync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "storage.wal.append_sync_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "storage.wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "storage.wal.fsync_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "storage.wal.records_per_fsync", Unit: "ratio", Better: "higher"},
	{Name: "storage.wal.bytes_written", Unit: "B", Better: "lower"},
	{Name: "storage.wal.bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "storage.wal.rotations", Unit: "count", Better: "lower"},

	{Name: "storage.recover.recovery_s", Unit: "s", Better: "lower"},
	{Name: "storage.recover.scan_s", Unit: "s", Better: "lower"},
	{Name: "storage.recover.records", Unit: "count", Better: "lower"},
	{Name: "storage.recover.committed", Unit: "count", Better: "higher"},

	{Name: "obs.tps_ratio_sampled", Unit: "ratio", Better: "higher"},
	{Name: "obs.events_recorded", Unit: "count", Better: "lower"},
	{Name: "obs.spans_completed", Unit: "count", Better: "higher"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_inuse_peak_mb", Unit: "MiB", Better: "lower"},

	{Name: "host.ref_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "host.slowdown", Unit: "ratio", Better: "lower"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
}
