// Package metrics renders the runtime's statistics structs as Prometheus
// series for the /metrics endpoint, and as the text summary the binaries
// print (WriteSummary). The scalar rows are not listed here: each stats
// struct declares its own schema beside its fields (engine.StatsFields,
// engine.TenantFields, server.StatsFields, cluster.PoolStatsFields) and
// both renderers loop over those tables, so a counter added to a
// struct's table cannot be missing from the scrape or the summary. Only
// the structured families — scheme mix, the stage and queue-wait
// histograms, tenant rows, per-backend health — are written out by hand.
//
// Naming follows the Prometheus conventions: counters end in _total,
// gauges are bare nouns, histograms are _seconds families with stage
// labels. Every family is emitted even when zero — a series that
// disappears when idle breaks rate() dashboards.
package metrics

import (
	"fmt"
	"io"
	"maps"
	"slices"

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
	m.Family("redux_engine_tenant_queue_wait_seconds", "histogram", "Submission queue wait per tenant.")
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

// Snapshot is one tier's counters at one moment, the input of
// WriteSummary. A nil part is not printed: an in-process engine has no
// server, and only a gateway has a pool.
type Snapshot struct {
	// Engine is one engine's counters, or a gateway's merge of its
	// backends' STATS answers.
	Engine *engine.Stats
	// Server is the wire front end's counters.
	Server *server.Stats
	// Pool is a gateway's routing and failover counters.
	Pool *cluster.PoolStats
}

// WriteSummary renders s as the text block reduxd and reduxgw print on
// shutdown and reduxserve prints under its report, every line starting
// with prefix. Like the /metrics page it loops over the stats tables
// (engine.StatsFields, engine.TenantFields, server.StatsFields,
// cluster.PoolStatsFields), so a row added to any of them is printed
// with no edit here or in a binary: one line per table, holding its
// non-zero rows as key=value. The structured fields follow their table:
// scheme mix and one line per tenant after the engine line, one line per
// backend after the pool line.
func WriteSummary(w io.Writer, prefix string, s Snapshot) error {
	var b []byte
	if e := s.Engine; e != nil {
		b = appendRows(b, prefix+"engine:", engine.StatsFields, e)
		if len(e.Schemes) > 0 {
			b = append(b, prefix+"scheme mix:"...)
			for _, name := range slices.Sorted(maps.Keys(e.Schemes)) {
				b = fmt.Appendf(b, " %s:%d", name, e.Schemes[name])
			}
			b = append(b, '\n')
		}
		for i := range e.Tenants {
			b = appendRows(b, prefix+"tenant "+e.Tenants[i].Name+":", engine.TenantFields, &e.Tenants[i])
		}
	}
	if s.Server != nil {
		b = appendRows(b, prefix+"server:", server.StatsFields, s.Server)
	}
	if p := s.Pool; p != nil {
		b = appendRows(b, prefix+"pool:", cluster.PoolStatsFields, p)
		for _, be := range p.Backends {
			state := "down"
			if be.Healthy {
				state = "healthy"
			}
			b = fmt.Appendf(b, "%sbackend %s: %s, jobs=%d\n", prefix, be.Addr, state, be.Jobs)
		}
	}
	_, err := w.Write(b)
	return err
}

// appendRows appends one summary line: label, then key=value for each of
// the table's rows that is non-zero in v.
func appendRows[T any](b []byte, label string, rows []obs.Field[T], v *T) []byte {
	b = append(b, label...)
	n := len(b)
	for i := range rows {
		if f := &rows[i]; f.Get(v) != 0 {
			b = fmt.Appendf(b, " %s=%d", f.Key, f.Get(v))
		}
	}
	if len(b) == n {
		b = append(b, " all zero"...)
	}
	return append(b, '\n')
}
