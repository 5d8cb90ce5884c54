package metrics

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
)

// families lists the metric families a rendered page declares, in order.
func families(page string) []string {
	var out []string
	for _, m := range typeLine.FindAllStringSubmatch(page, -1) {
		out = append(out, m[1])
	}
	return out
}

// samplePage renders the full /metrics page of a gateway — engine,
// server and pool sections — over snapshots with every field non-zero.
func samplePage(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEngineStats(&buf, sampleStats()); err != nil {
		t.Fatal(err)
	}
	if err := WriteServerStats(&buf, fakeServer{}); err != nil {
		t.Fatal(err)
	}
	ps := cluster.PoolStats{Backends: []cluster.BackendStatus{{Addr: "a:1", Healthy: true, Jobs: 9}}}
	if err := WritePoolStats(&buf, ps); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// checkSchema holds one stats struct against its schema: every exported
// uint64/int field of T is read by exactly one row (each field is set to
// a distinct value and each row must read a different one of them), Set
// writes where Get reads, and exactly one accessor is declared. It also
// checks the naming rule that lets a dashboard trust a name: a series
// ends in _total iff its row is a counter.
func checkSchema[T any](t *testing.T, rows []obs.Field[T]) {
	t.Helper()
	var v T
	rv := reflect.ValueOf(&v).Elem()
	unread := map[uint64]string{}
	for i := 0; i < rv.NumField(); i++ {
		p := uint64(101 + 2*len(unread)) // distinct, and never a value a row could read by accident
		switch fv := rv.Field(i); fv.Kind() {
		case reflect.Uint64:
			fv.SetUint(p)
		case reflect.Int:
			fv.SetInt(int64(p))
		default:
			continue
		}
		unread[p] = rv.Type().String() + "." + rv.Type().Field(i).Name
	}
	for i := range rows {
		f := &rows[i]
		if (f.U64 == nil) == (f.Int == nil) {
			t.Errorf("%s: want exactly one of U64 and Int", f.Series)
			continue
		}
		got := f.Get(&v)
		name, ok := unread[got]
		if !ok {
			t.Errorf("%s reads %d: not a scalar of the struct, or one another row already claimed", f.Series, got)
			continue
		}
		delete(unread, got)
		var w T
		f.Set(&w, got)
		wv := reflect.ValueOf(w).FieldByName(name[strings.LastIndex(name, ".")+1:])
		if (wv.CanUint() && wv.Uint() != got) || (wv.CanInt() && wv.Int() != int64(got)) {
			t.Errorf("%s: Set writes a different field than Get reads (%s)", f.Series, name)
		}
		if strings.HasSuffix(f.Series, "_total") != (f.Kind == obs.Counter) {
			t.Errorf("%s (%s): a series ends in _total iff its row is a counter", f.Series, name)
		}
		if f.Help == "" {
			t.Errorf("%s: no HELP text", f.Series)
		}
	}
	for _, name := range unread {
		t.Errorf("%s has no schema row — add one beside the field", name)
	}
}

func sampleStats() engine.Stats {
	return engine.Stats{
		Jobs: 100, CacheHits: 80, CacheMisses: 20,
		Batches:      100,
		CacheEntries: 7, CacheEvictions: 2,
		Recalibrations: 9, SchemeSwitches: 4,
		SegsComputed: 30, SegsReused: 18,
		SessionOpens: 3, SessionJobs: 25,
		SessionSegsComputed: 40, SessionSegsReused: 160,
		Schemes: map[string]uint64{"rep": 60, "ll": 40},
		Stages: []obs.StageSummary{
			{Name: "execute", Snap: obs.Snapshot{Count: 100, SumNs: 2_500_000, MaxNs: 90_000, Buckets: []uint64{0, 1, 4, 95}}},
		},
		Tenants: []engine.TenantStats{
			{Name: "default", Weight: 1, Jobs: 30,
				QueueWait: obs.Snapshot{Count: 12, SumNs: 9000, MaxNs: 1100, Buckets: []uint64{2, 10}}},
			{Name: "acme", Weight: 4, Jobs: 70, Busy: 5, Recalibrations: 6, SchemeSwitches: 3,
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
	for _, f := range engine.TenantFields {
		if !strings.Contains(idle.String(), "# TYPE "+f.Series+" ") {
			t.Errorf("tenant family %s disappears when no tenants are configured", f.Series)
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

// TestEngineStatsCoverage is the completeness check of the stats schema:
// every exported scalar of the four stats structs has exactly one row
// and follows the _total rule, every row's series reaches the page, and
// every family on the page — schema rows and the hand-written structured
// families alike — is declared once, with HELP, TYPE and a sample.
func TestEngineStatsCoverage(t *testing.T) {
	checkSchema(t, engine.StatsFields)
	checkSchema(t, engine.TenantFields)
	checkSchema(t, server.StatsFields)
	checkSchema(t, cluster.PoolStatsFields)

	out := samplePage(t)
	declared := map[string]bool{}
	for _, series := range families(out) {
		if declared[series] {
			t.Errorf("series %s is declared twice", series)
		}
		declared[series] = true
		if !strings.Contains(out, "# HELP "+series+" ") {
			t.Errorf("series %s missing HELP header", series)
		}
		if !strings.Contains(out, "\n"+series) {
			t.Errorf("series %s has no samples", series)
		}
	}
	var rows []string
	for _, f := range engine.StatsFields {
		rows = append(rows, f.Series)
	}
	for _, f := range engine.TenantFields {
		rows = append(rows, f.Series)
	}
	for _, f := range server.StatsFields {
		rows = append(rows, f.Series)
	}
	for _, f := range cluster.PoolStatsFields {
		rows = append(rows, f.Series)
	}
	for _, series := range rows {
		if !declared[series] {
			t.Errorf("schema row %s never reaches the page", series)
		}
		delete(declared, series) // a second row under the same name fails above
	}
}

// TestEngineStatsIdleFamilies renders zero snapshots: every family of
// the sample page must still be declared (HELP/TYPE), in the same order,
// so idle processes don't drop series.
func TestEngineStatsIdleFamilies(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEngineStats(&buf, engine.Stats{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteServerStats(&buf, goldenServer{zero: true}); err != nil {
		t.Fatal(err)
	}
	if err := WritePoolStats(&buf, cluster.PoolStats{}); err != nil {
		t.Fatal(err)
	}
	if idle, busy := families(buf.String()), families(samplePage(t)); !reflect.DeepEqual(idle, busy) {
		t.Errorf("idle page declares\n %v\nbusy page declares\n %v", idle, busy)
	}
}

// TestSeriesDocs holds the metrics reference in docs/OPERATIONS.md to
// the page: every family the daemons export has a row in one of the
// reference tables, and every redux_* series a row documents exists.
func TestSeriesDocs(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if m := docRow.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}
	exported := map[string]bool{}
	for _, series := range families(samplePage(t)) {
		exported[series] = true
		if !documented[series] {
			t.Errorf("%s is exported but has no row in the docs/OPERATIONS.md metrics reference", series)
		}
	}
	for series := range documented {
		if !exported[series] {
			t.Errorf("docs/OPERATIONS.md documents %s, which no daemon exports", series)
		}
	}
}

var (
	// docRow matches a metrics-reference table row: "| `redux_x{label}` | ...".
	docRow   = regexp.MustCompile("^\\| `(redux_[a-z_]+)")
	typeLine = regexp.MustCompile(`(?m)^# TYPE (\S+) `)
)

type fakeServer struct{}

func (fakeServer) Stats() server.Stats {
	return server.Stats{Busy: 3, InternHits: 42, InternedLoops: 5, HandleHits: 40, HandleGone: 2, Inline: 31}
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
		"redux_server_inline_total 31",
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
