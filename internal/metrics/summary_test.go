package metrics

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
)

// fill sets every row of a table to a distinct non-zero value, starting
// at base, and returns the "key=value" strings the summary must carry.
func fill[T any](t *testing.T, rows []obs.Field[T], v *T, base uint64) []string {
	t.Helper()
	var want []string
	seen := map[string]bool{}
	for i := range rows {
		f := &rows[i]
		if f.Key == "" || seen[f.Key] {
			t.Errorf("row %s: key %q empty or not unique in its table", f.Series, f.Key)
		}
		seen[f.Key] = true
		f.Set(v, base+uint64(i))
		want = append(want, fmt.Sprintf(" %s=%d", f.Key, base+uint64(i)))
	}
	return want
}

// TestSummaryPrintsEveryNonZeroRow: every non-zero row of every table,
// and every structured field, appears in the summary, on a line carrying
// the prefix.
func TestSummaryPrintsEveryNonZeroRow(t *testing.T) {
	es := engine.Stats{
		Schemes: map[string]uint64{"rep": 3, "hash": 2},
		Tenants: []engine.TenantStats{{Name: "a"}},
	}
	var ss server.Stats
	ps := cluster.PoolStats{Backends: []cluster.BackendStatus{{Addr: "b1:1", Healthy: true, Jobs: 9}, {Addr: "b2:2"}}}
	lines := map[string][]string{
		"engine:":   fill(t, engine.StatsFields, &es, 100),
		"tenant a:": fill(t, engine.TenantFields, &es.Tenants[0], 200),
		"server:":   fill(t, server.StatsFields, &ss, 300),
		"pool:":     fill(t, cluster.PoolStatsFields, &ps, 400),
	}
	var b bytes.Buffer
	if err := WriteSummary(&b, "reduxgw: ", Snapshot{Engine: &es, Server: &ss, Pool: &ps}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for label, want := range lines {
		line := findLine(out, "reduxgw: "+label)
		for _, kv := range want {
			if !strings.Contains(line+" ", kv+" ") {
				t.Errorf("%s line lacks%s:\n%s", label, kv, out)
			}
		}
	}
	for _, s := range []string{
		"reduxgw: scheme mix: hash:2 rep:3\n",
		"reduxgw: backend b1:1: healthy, jobs=9\n",
		"reduxgw: backend b2:2: down, jobs=0\n",
	} {
		if !strings.Contains(out, s) {
			t.Errorf("summary lacks %q:\n%s", s, out)
		}
	}
}

// findLine returns the line of out that starts with prefix.
func findLine(out, prefix string) string {
	for line := range strings.Lines(out) {
		if strings.HasPrefix(line, prefix) {
			return strings.TrimSuffix(line, "\n")
		}
	}
	return ""
}

// TestSummaryOmitsAbsentParts: zero rows are left out, a table with none
// says so, and nil parts print nothing.
func TestSummaryOmitsAbsentParts(t *testing.T) {
	var b bytes.Buffer
	WriteSummary(&b, "", Snapshot{Engine: &engine.Stats{Jobs: 4}})
	if got, want := b.String(), "engine: engine_jobs=4\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	b.Reset()
	WriteSummary(&b, "x: ", Snapshot{Server: &server.Stats{}})
	if got, want := b.String(), "x: server: all zero\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestSummaryFollowsStatsFields: a row added to engine.StatsFields is in
// the summary with no edit to the renderer (nor to the binaries, which
// all print through it).
func TestSummaryFollowsStatsFields(t *testing.T) {
	saved := engine.StatsFields
	t.Cleanup(func() { engine.StatsFields = saved })
	engine.StatsFields = append(slices.Clip(saved), obs.Field[engine.Stats]{
		Kind: obs.Setting, Series: "redux_engine_probe", Key: "probe_row",
		U64: func(s *engine.Stats) *uint64 { return &s.Jobs },
	})
	var b bytes.Buffer
	WriteSummary(&b, "", Snapshot{Engine: &engine.Stats{Jobs: 7}})
	if !strings.Contains(b.String(), "probe_row=7") {
		t.Errorf("new row missing:\n%s", b.String())
	}
}
