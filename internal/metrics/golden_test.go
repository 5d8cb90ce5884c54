package metrics

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
)

var update = flag.Bool("update", false, "rewrite the testdata golden pages from the current renderer")

// goldenServer is a ServerView with every counter distinct, so a row
// wired to the wrong field moves the page.
type goldenServer struct{ zero bool }

func (g goldenServer) Stats() server.Stats {
	if g.zero {
		return server.Stats{}
	}
	return server.Stats{
		Busy: 3, InternHits: 42, InternedLoops: 5, InternEvictions: 9, HandleHits: 40, HandleGone: 2,
		Inline: 31, Sessions: 6, SessionOpens: 11, SessionEvictions: 7,
	}
}
func (g goldenServer) StageStats() []obs.StageSummary {
	if g.zero {
		return nil
	}
	return fakeServer{}.StageStats()
}
func (g goldenServer) Inflight() int64 {
	if g.zero {
		return 0
	}
	return 13
}

// TestMetricsGoldenPages pins the whole /metrics page a gateway serves
// (engine, server and pool sections in that order) to bytes recorded
// from the hand-written renderers the stats schema replaced — once for a
// snapshot with every field distinct and once for the zero snapshot, so
// family order, HELP text, TYPE and idle-family presence all hold.
func TestMetricsGoldenPages(t *testing.T) {
	pool := cluster.PoolStats{
		Backends: []cluster.BackendStatus{
			{Addr: "a:1", Healthy: true, Jobs: 9},
			{Addr: "b:2", Healthy: false, Jobs: 4},
		},
		Rerouted: 1, TimedOut: 2, BusyRetries: 3, BusySpills: 4, Exhausted: 5,
	}
	for _, tc := range []struct {
		name string
		es   engine.Stats
		sv   ServerView
		ps   cluster.PoolStats
	}{
		{"metrics_sample.prom", sampleStats(), goldenServer{}, pool},
		{"metrics_zero.prom", engine.Stats{}, goldenServer{zero: true}, cluster.PoolStats{}},
	} {
		var got bytes.Buffer
		if err := WriteEngineStats(&got, tc.es); err != nil {
			t.Fatal(err)
		}
		if err := WriteServerStats(&got, tc.sv); err != nil {
			t.Fatal(err)
		}
		if err := WritePoolStats(&got, tc.ps); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", tc.name)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s moved:\n--- got\n%s\n--- want\n%s", tc.name, got.Bytes(), want)
		}
	}
}
