// Package metrics maps the runtime's statistics structs onto Prometheus
// series for the /metrics endpoint. It is the one place where struct
// fields become series names: WriteEngineStats must cover every
// engine.Stats field (a reflection test enforces it), so a counter added
// to the engine cannot silently vanish from the scrape.
//
// Naming follows the Prometheus conventions: counters end in _total,
// gauges are bare nouns, histograms are _seconds families with stage
// labels. Every family is emitted even when zero — a series that
// disappears when idle breaks rate() dashboards.
package metrics

import (
	"io"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
)

// WriteEngineStats renders one engine.Stats snapshot. On a gateway the
// snapshot is the Merge of every backend's STATS answer, so the same
// series names describe one backend or the whole tier.
func WriteEngineStats(w io.Writer, s engine.Stats) error {
	m := obs.NewMetricWriter(w)

	counter := func(name, help string, v uint64) {
		m.Family(name, "counter", help)
		m.Sample(name, float64(v))
	}
	counter("redux_engine_jobs_total", "Reduction jobs executed.", s.Jobs)
	counter("redux_engine_cache_hits_total", "Scheme decisions served from the pattern cache.", s.CacheHits)
	counter("redux_engine_cache_misses_total", "Scheme decisions that required a fresh inspection.", s.CacheMisses)
	counter("redux_engine_batches_total", "Batch executions (fused jobs share one).", s.Batches)
	counter("redux_engine_coalesced_jobs_total", "Jobs that rode another job's execution.", s.Coalesced)
	counter("redux_engine_cache_evictions_total", "Pattern cache CLOCK evictions.", s.CacheEvictions)
	counter("redux_engine_recalibrations_total", "Stale-entry re-inspections through the decision algorithm.", s.Recalibrations)
	counter("redux_engine_scheme_switches_total", "Recalibrations that replaced a cached scheme.", s.SchemeSwitches)
	counter("redux_engine_simplified_batches_total", "Batches executed through the simplified segment plan.", s.SimplifiedBatches)
	counter("redux_engine_simplify_fallbacks_total", "Segment analyses that fell back to the direct path.", s.SimplifyFallbacks)
	counter("redux_engine_segments_computed_total", "Segment partial sums accumulated fresh.", s.SegsComputed)
	counter("redux_engine_segments_reused_total", "Segment partial sums served from an entry's segment cache.", s.SegsReused)
	counter("redux_engine_session_opens_total", "Streaming sessions registered.", s.SessionOpens)
	counter("redux_engine_session_jobs_total", "Delta batches applied through streaming sessions.", s.SessionJobs)
	counter("redux_engine_session_segments_computed_total", "Session segments recomputed because a delta touched them.", s.SessionSegsComputed)
	counter("redux_engine_session_segments_reused_total", "Session segments reused intact across a delta apply.", s.SessionSegsReused)

	m.Family("redux_engine_cache_entries", "gauge", "Distinct pattern signatures currently cached.")
	m.Sample("redux_engine_cache_entries", float64(s.CacheEntries))

	m.MapCounter("redux_engine_scheme_jobs_total",
		"Jobs executed per reduction scheme.", "scheme", s.Schemes)

	m.Family("redux_engine_batch_occupancy_total", "counter",
		"Executed batches by fused-job count (last bucket absorbs larger).")
	for k, v := range s.BatchOccupancy {
		if k == 0 {
			continue // index 0 is unused by construction
		}
		m.Sample("redux_engine_batch_occupancy_total", float64(v), "size", strconv.Itoa(k))
	}

	m.StageSet("redux_engine_stage_latency_seconds",
		"Engine-side per-stage job latency (queue_wait, inspect, execute).", s.Stages)

	// Per-tenant slices, labeled by tenant name. Families are declared
	// even when no tenants are configured (s.Tenants empty) so dashboards
	// keyed on them never see the series vanish.
	tc := func(name, help string, get func(t engine.TenantStats) uint64) {
		m.Family(name, "counter", help)
		for _, t := range s.Tenants {
			m.Sample(name, float64(get(t)), "tenant", t.Name)
		}
	}
	tc("redux_engine_tenant_jobs_total", "Reduction jobs executed per tenant.",
		func(t engine.TenantStats) uint64 { return t.Jobs })
	tc("redux_engine_tenant_batches_total", "Batch executions per tenant.",
		func(t engine.TenantStats) uint64 { return t.Batches })
	tc("redux_engine_tenant_busy_total", "Jobs rejected by the tenant's admission quotas (BUSY tenant answers).",
		func(t engine.TenantStats) uint64 { return t.Busy })
	tc("redux_engine_tenant_recalibrations_total", "Stale-entry re-inspections triggered by the tenant's batches.",
		func(t engine.TenantStats) uint64 { return t.Recalibrations })
	tc("redux_engine_tenant_scheme_switches_total", "Recalibrations by the tenant's batches that replaced a cached scheme.",
		func(t engine.TenantStats) uint64 { return t.SchemeSwitches })
	m.Family("redux_engine_tenant_weight", "gauge", "Configured DRR scheduling weight per tenant.")
	for _, t := range s.Tenants {
		m.Sample("redux_engine_tenant_weight", float64(t.Weight), "tenant", t.Name)
	}
	m.Family("redux_engine_tenant_queue_wait_seconds", "histogram", "Batch queue wait per tenant.")
	for _, t := range s.Tenants {
		m.Histogram("redux_engine_tenant_queue_wait_seconds", t.QueueWait, "tenant", t.Name)
	}
	return m.Err()
}

// ServerView is the slice of *server.Server that /metrics scrapes —
// narrow so tests can fake it.
type ServerView interface {
	// Stats snapshots the server counters.
	Stats() server.Stats
	// StageStats snapshots the per-stage latency histograms.
	StageStats() []obs.StageSummary
	// Inflight reports the jobs currently in flight (queue depth).
	Inflight() int64
}

// WriteServerStats renders the serving tier's counters and stage
// histograms (which include the engine stages copied onto each job's
// timeline, so one family shows the full pipeline).
func WriteServerStats(w io.Writer, sv ServerView) error {
	m := obs.NewMetricWriter(w)
	st := sv.Stats()

	m.Family("redux_server_busy_total", "counter", "Submissions rejected by admission control (BUSY answers).")
	m.Sample("redux_server_busy_total", float64(st.Busy))
	m.Family("redux_server_intern_hits_total", "counter", "Submissions that mapped onto an already-interned canonical loop.")
	m.Sample("redux_server_intern_hits_total", float64(st.InternHits))
	m.Family("redux_server_pattern_handle_hits_total", "counter", "Submissions that arrived as a pattern handle the intern table still held (no decode; included in intern hits).")
	m.Sample("redux_server_pattern_handle_hits_total", float64(st.HandleHits))
	m.Family("redux_server_pattern_handle_gone_total", "counter", "Pattern handles that missed and were answered pattern-gone (the client resubmits in full).")
	m.Sample("redux_server_pattern_handle_gone_total", float64(st.HandleGone))
	m.Family("redux_server_interned_loops", "gauge", "Canonical loops currently interned.")
	m.Sample("redux_server_interned_loops", float64(st.InternedLoops))
	m.Family("redux_server_inflight_jobs", "gauge", "Jobs currently in flight across all connections (queue depth).")
	m.Sample("redux_server_inflight_jobs", float64(sv.Inflight()))
	m.Family("redux_server_sessions", "gauge", "Streaming sessions currently resident.")
	m.Sample("redux_server_sessions", float64(st.Sessions))
	m.Family("redux_server_session_opens_total", "counter", "Streaming sessions admitted (OPEN_SESSION accepted).")
	m.Sample("redux_server_session_opens_total", float64(st.SessionOpens))
	m.Family("redux_server_session_evictions_total", "counter", "Sessions evicted by TTL expiry or the CLOCK sweep.")
	m.Sample("redux_server_session_evictions_total", float64(st.SessionEvictions))

	m.StageSet("redux_server_stage_latency_seconds",
		"Per-stage job latency as the server saw it, end to end.", sv.StageStats())
	return m.Err()
}

// WritePoolStats renders the gateway's routing counters and per-backend
// health.
func WritePoolStats(w io.Writer, ps cluster.PoolStats) error {
	m := obs.NewMetricWriter(w)

	counter := func(name, help string, v uint64) {
		m.Family(name, "counter", help)
		m.Sample(name, float64(v))
	}
	counter("redux_cluster_rerouted_total", "Jobs re-placed after their backend's connection died.", ps.Rerouted)
	counter("redux_cluster_timedout_total", "Jobs re-placed after a backend sat silent past the leg timeout.", ps.TimedOut)
	counter("redux_cluster_busy_retries_total", "Same-backend resubmissions after BUSY answers.", ps.BusyRetries)
	counter("redux_cluster_busy_spills_total", "Jobs that left their affinity backend after the BUSY retry budget.", ps.BusySpills)
	counter("redux_cluster_exhausted_total", "Jobs that ran out of backends (answered BUSY upstream).", ps.Exhausted)

	m.Family("redux_cluster_backend_up", "gauge", "Backend health by address (1 healthy, 0 down).")
	for _, b := range ps.Backends {
		up := 0.0
		if b.Healthy {
			up = 1
		}
		m.Sample("redux_cluster_backend_up", up, "backend", b.Addr)
	}
	m.Family("redux_cluster_backend_jobs_total", "counter", "Jobs placed per backend.")
	for _, b := range ps.Backends {
		m.Sample("redux_cluster_backend_jobs_total", float64(b.Jobs), "backend", b.Addr)
	}
	return m.Err()
}
