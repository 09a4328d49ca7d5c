package main

import "relser/internal/txn"

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// layerMetrics turns the folded spans and counts of one traced rep into
// the per-layer numbers. A stage's self time is its span minus the
// child spans recorded inside it. The driver's share is what no stage
// span covers: wall time of every worker minus the top-level spans.
func (t *tracer) layerMetrics(s *spec, res *txn.Result, wallS float64) map[string]float64 {
	sec := func(name int) float64 { return float64(t.sum[name]) / 1e9 }
	self := func(name int) float64 { return float64(t.sum[name]-t.inner[name]) / 1e9 }
	workers := 1
	if s.concurrent {
		workers = s.clients()
	}
	total, busy := wallS*float64(workers), float64(t.top)/1e9
	decile := len(t.reqNs) / 10
	drift := 0.0
	if decile > 0 {
		// Calls are in the order their instances finished, so the first
		// and last tenth are the start and the end of the run.
		drift = ratio(mean(t.reqNs[len(t.reqNs)-decile:]), mean(t.reqNs[:decile]))
	}
	decisions := float64(t.grants + t.blocks + t.refusals)
	return map[string]float64{
		"txn.driver_self_s":     total - busy,
		"txn.driver_self_share": ratio(total-busy, total),
		"txn.ticks":             float64(res.Ticks),
		"txn.blocks":            float64(res.Blocks),
		"txn.commit_waits":      float64(res.CommitWaits),

		"engine.issue_wait_s":  float64(t.wait) / 1e9,
		"engine.admit_s":       sec(spAdmit),
		"engine.decide_s":      sec(spDecide),
		"engine.decide_self_s": self(spDecide),
		"engine.apply_s":       sec(spApply),
		"engine.commit_s":      sec(spCommit),
		"engine.commit_self_s": self(spCommit),
		"engine.abort_s":       sec(spAbort),
		"engine.aborts":        float64(res.Aborts),

		"sched.request_s":           sec(spRequest),
		"sched.requests":            float64(t.cnt[spRequest]),
		"sched.request_us_p50":      quantile(t.reqNs, 0.50) / 1e3,
		"sched.request_us_p99":      quantile(t.reqNs, 0.99) / 1e3,
		"sched.request_drift":       drift,
		"sched.begin_s":             sec(spBegin),
		"sched.can_commit_s":        sec(spCanCommit),
		"sched.commit_s":            sec(spSchedCommit),
		"sched.abort_s":             sec(spSchedAbort),
		"sched.low_water_s":         sec(spLowWater),
		"sched.grants":              float64(t.grants),
		"sched.blocks":              float64(t.blocks),
		"sched.aborts":              float64(t.refusals),
		"sched.grant_ratio":         ratio(float64(t.grants), decisions),
		"sched.restart_ratio":       ratio(float64(res.Restarts), float64(res.Committed)),
		"sched.fastpath_hit_ratio":  res.Retire.HitRate(),
		"sched.fastpath_misses":     float64(res.Retire.FastPathMisses),
		"sched.retire_epochs":       float64(res.Retire.GraphEpochs),
		"sched.retired_vertices":    float64(res.Retire.RetiredVertices),
		"sched.peak_live_vertices":  float64(t.peakLive),
		"sched.peak_exec_entries":   float64(t.peakExec),
		"sched.retire_pause_us_max": float64(t.pauseMax) / 1e3,

		"storage.wal.appends":            float64(t.cnt[spWALAppend] + t.cnt[spWALSync]),
		"storage.wal.append_s":           sec(spWALAppend),
		"storage.wal.append_sync_s":      sec(spWALSync),
		"storage.wal.append_sync_ms_p50": quantile(t.syncNs, 0.50) / 1e6,
		"storage.wal.append_sync_ms_p99": quantile(t.syncNs, 0.99) / 1e6,
		"storage.wal.fsyncs":             float64(t.fsyncs.Load()),
		"storage.wal.fsync_ms_mean":      ratio(float64(t.fsyncNs.Load())/1e6, float64(t.fsyncs.Load())),
		"storage.wal.bytes_written":      float64(t.fileBytes.Load()),
		"storage.wal.bytes_per_commit":   ratio(float64(t.fileBytes.Load()), float64(res.Committed)),

		"runtime.heap_inuse_peak_mb": float64(t.heapPeak) / (1 << 20),
		"trace.coverage":             ratio(busy, total),
	}
}
