// Package metrics renders the runtime's statistics structs as Prometheus
// series for the /metrics endpoint. The scalar series are not listed
// here: each stats struct declares its own schema beside its fields
// (engine.StatsFields, engine.TenantFields, server.StatsFields,
// cluster.PoolStatsFields) and this package loops over those tables, so
// a counter added to a struct's table cannot be missing from the scrape.
// Only the structured families — scheme mix, occupancy, the stage and
// queue-wait histograms, per-backend health — are written out by hand.
//
// Naming follows the Prometheus conventions: counters end in _total,
// gauges are bare nouns, histograms are _seconds families with stage
// labels. Every family is emitted even when zero — a series that
// disappears when idle breaks rate() dashboards.
package metrics

import (
	"io"
	"slices"
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
	obs.WriteFields(m, engine.StatsFields, &s)

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
	for i := range engine.TenantFields {
		f := &engine.TenantFields[i]
		m.Family(f.Series, f.Kind.PromType(), f.Help)
		for j := range s.Tenants {
			m.Sample(f.Series, float64(f.Get(&s.Tenants[j])), "tenant", s.Tenants[j].Name)
		}
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
	// The queue-depth gauge is read live rather than snapshotted into
	// server.Stats; on the page it sits just ahead of the session rows.
	sessions := slices.IndexFunc(server.StatsFields, func(f obs.Field[server.Stats]) bool {
		return f.Series == "redux_server_sessions"
	})
	obs.WriteFields(m, server.StatsFields[:sessions], &st)
	m.Family("redux_server_inflight_jobs", "gauge", "Jobs currently in flight across all connections (queue depth).")
	m.Sample("redux_server_inflight_jobs", float64(sv.Inflight()))
	obs.WriteFields(m, server.StatsFields[sessions:], &st)

	m.StageSet("redux_server_stage_latency_seconds",
		"Per-stage job latency as the server saw it, end to end.", sv.StageStats())
	return m.Err()
}

// WritePoolStats renders the gateway's routing counters and per-backend
// health.
func WritePoolStats(w io.Writer, ps cluster.PoolStats) error {
	m := obs.NewMetricWriter(w)

	obs.WriteFields(m, cluster.PoolStatsFields, &ps)

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
