package metrics

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
)

// statsSeries maps every engine.Stats field to the series (or series
// family) that carries it. The reflection test below fails when a field
// is added to engine.Stats without a row here, and the row is then
// checked against the actual /metrics output — the two together make
// "every engine counter is scrapeable" a compile-adjacent guarantee.
var statsSeries = map[string]string{
	"Jobs":                "redux_engine_jobs_total",
	"CacheHits":           "redux_engine_cache_hits_total",
	"CacheMisses":         "redux_engine_cache_misses_total",
	"Batches":             "redux_engine_batches_total",
	"Coalesced":           "redux_engine_coalesced_jobs_total",
	"CacheEntries":        "redux_engine_cache_entries",
	"CacheEvictions":      "redux_engine_cache_evictions_total",
	"Recalibrations":      "redux_engine_recalibrations_total",
	"SchemeSwitches":      "redux_engine_scheme_switches_total",
	"SimplifiedBatches":   "redux_engine_simplified_batches_total",
	"SimplifyFallbacks":   "redux_engine_simplify_fallbacks_total",
	"SegsComputed":        "redux_engine_segments_computed_total",
	"SegsReused":          "redux_engine_segments_reused_total",
	"SessionOpens":        "redux_engine_session_opens_total",
	"SessionJobs":         "redux_engine_session_jobs_total",
	"SessionSegsComputed": "redux_engine_session_segments_computed_total",
	"SessionSegsReused":   "redux_engine_session_segments_reused_total",
	"Schemes":             "redux_engine_scheme_jobs_total",
	"BatchOccupancy":      "redux_engine_batch_occupancy_total",
	"Stages":              "redux_engine_stage_latency_seconds",
	"Tenants":             "redux_engine_tenant_jobs_total",
}

// tenantSeries lists the rest of the per-tenant families (the coverage
// map above can carry only one series per struct field); each must be
// declared even when idle and sampled per tenant when rows exist.
var tenantSeries = []string{
	"redux_engine_tenant_jobs_total",
	"redux_engine_tenant_batches_total",
	"redux_engine_tenant_busy_total",
	"redux_engine_tenant_recalibrations_total",
	"redux_engine_tenant_scheme_switches_total",
	"redux_engine_tenant_weight",
	"redux_engine_tenant_queue_wait_seconds",
}

func sampleStats() engine.Stats {
	return engine.Stats{
		Jobs: 100, CacheHits: 80, CacheMisses: 20,
		Batches: 40, Coalesced: 60,
		CacheEntries: 7, CacheEvictions: 2,
		Recalibrations: 9, SchemeSwitches: 4,
		SimplifiedBatches: 12, SimplifyFallbacks: 1,
		SegsComputed: 30, SegsReused: 18,
		SessionOpens: 3, SessionJobs: 25,
		SessionSegsComputed: 40, SessionSegsReused: 160,
		Schemes:        map[string]uint64{"rep": 60, "ll": 40},
		BatchOccupancy: []uint64{0, 10, 15},
		Stages: []obs.StageSummary{
			{Name: "execute", Snap: obs.Snapshot{Count: 100, SumNs: 2_500_000, MaxNs: 90_000, Buckets: []uint64{0, 1, 4, 95}}},
		},
		Tenants: []engine.TenantStats{
			{Name: "default", Weight: 1, Jobs: 30, Batches: 12,
				QueueWait: obs.Snapshot{Count: 12, SumNs: 9000, MaxNs: 1100, Buckets: []uint64{2, 10}}},
			{Name: "acme", Weight: 4, Jobs: 70, Batches: 28, Busy: 5, Recalibrations: 6, SchemeSwitches: 3,
				QueueWait: obs.Snapshot{Count: 28, SumNs: 21000, MaxNs: 2500, Buckets: []uint64{3, 25}}},
		},
	}
}

// TestEngineTenantSeries pins the per-tenant families: every one is
// declared even on a tenantless snapshot, and a multi-tenant snapshot
// samples each with a tenant label plus a complete histogram.
func TestEngineTenantSeries(t *testing.T) {
	var idle bytes.Buffer
	if err := WriteEngineStats(&idle, engine.Stats{}); err != nil {
		t.Fatal(err)
	}
	for _, series := range tenantSeries {
		if !strings.Contains(idle.String(), "# TYPE "+series+" ") {
			t.Errorf("tenant family %s disappears when no tenants are configured", series)
		}
	}

	var buf bytes.Buffer
	if err := WriteEngineStats(&buf, sampleStats()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`redux_engine_tenant_jobs_total{tenant="default"} 30`,
		`redux_engine_tenant_jobs_total{tenant="acme"} 70`,
		`redux_engine_tenant_batches_total{tenant="acme"} 28`,
		`redux_engine_tenant_busy_total{tenant="acme"} 5`,
		`redux_engine_tenant_recalibrations_total{tenant="acme"} 6`,
		`redux_engine_tenant_scheme_switches_total{tenant="acme"} 3`,
		`redux_engine_tenant_weight{tenant="acme"} 4`,
		`redux_engine_tenant_queue_wait_seconds_count{tenant="acme"} 28`,
		`redux_engine_tenant_queue_wait_seconds_bucket{tenant="acme",le="+Inf"} 28`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tenant metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestEngineStatsCoverage walks engine.Stats by reflection: every field
// must have a series mapping, and every mapped series must appear in the
// rendered output with a HELP and TYPE header.
func TestEngineStatsCoverage(t *testing.T) {
	typ := reflect.TypeOf(engine.Stats{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := statsSeries[name]; !ok {
			t.Errorf("engine.Stats.%s has no series mapping — add it to WriteEngineStats and statsSeries", name)
		}
	}
	for field := range statsSeries {
		if _, ok := typ.FieldByName(field); !ok {
			t.Errorf("statsSeries maps %q which engine.Stats no longer has", field)
		}
	}

	var buf bytes.Buffer
	if err := WriteEngineStats(&buf, sampleStats()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for field, series := range statsSeries {
		if !strings.Contains(out, "# HELP "+series+" ") {
			t.Errorf("engine.Stats.%s: series %s missing HELP header", field, series)
		}
		if !strings.Contains(out, "# TYPE "+series+" ") {
			t.Errorf("engine.Stats.%s: series %s missing TYPE header", field, series)
		}
		if !strings.Contains(out, "\n"+series) {
			t.Errorf("engine.Stats.%s: series %s has no samples", field, series)
		}
	}
}

// TestEngineStatsIdleFamilies renders a zero snapshot: every family must
// still be declared (HELP/TYPE) so idle processes don't drop series.
func TestEngineStatsIdleFamilies(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEngineStats(&buf, engine.Stats{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for field, series := range statsSeries {
		if !strings.Contains(out, "# TYPE "+series+" ") {
			t.Errorf("engine.Stats.%s: family %s disappears when idle", field, series)
		}
	}
}

type fakeServer struct{}

func (fakeServer) Stats() server.Stats {
	return server.Stats{Busy: 3, InternHits: 42, InternedLoops: 5, HandleHits: 40, HandleGone: 2}
}
func (fakeServer) StageStats() []obs.StageSummary {
	return []obs.StageSummary{
		{Name: "decode", Snap: obs.Snapshot{Count: 10, SumNs: 5000, MaxNs: 900, Buckets: []uint64{0, 10}}},
	}
}
func (fakeServer) Inflight() int64 { return 2 }

func TestWriteServerStats(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteServerStats(&buf, fakeServer{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"redux_server_busy_total 3",
		"redux_server_intern_hits_total 42",
		"redux_server_pattern_handle_hits_total 40",
		"redux_server_pattern_handle_gone_total 2",
		"redux_server_interned_loops 5",
		"redux_server_inflight_jobs 2",
		`redux_server_stage_latency_seconds_count{stage="decode"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("server metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestWritePoolStats(t *testing.T) {
	ps := cluster.PoolStats{
		Backends: []cluster.BackendStatus{
			{Addr: "a:1", Healthy: true, Jobs: 9},
			{Addr: "b:2", Healthy: false, Jobs: 4},
		},
		Rerouted: 1, TimedOut: 2, BusyRetries: 3, BusySpills: 4, Exhausted: 5,
	}
	var buf bytes.Buffer
	if err := WritePoolStats(&buf, ps); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"redux_cluster_rerouted_total 1",
		"redux_cluster_timedout_total 2",
		"redux_cluster_busy_retries_total 3",
		"redux_cluster_busy_spills_total 4",
		"redux_cluster_exhausted_total 5",
		`redux_cluster_backend_up{backend="a:1"} 1`,
		`redux_cluster_backend_up{backend="b:2"} 0`,
		`redux_cluster_backend_jobs_total{backend="a:1"} 9`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("pool metrics missing %q in:\n%s", want, out)
		}
	}
}
