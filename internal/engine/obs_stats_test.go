package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestStatsMergeStageMismatch merges stage summaries whose histograms
// have different bucket counts — the shape that arises when one shard
// (or one remote backend) has only seen fast jobs while another has
// slower observations in higher buckets. Merge must grow to the longer
// shape in either direction and never alias the source's buckets.
func TestStatsMergeStageMismatch(t *testing.T) {
	short := Stats{Stages: []obs.StageSummary{
		{Name: "execute", Snap: obs.Snapshot{Count: 2, SumNs: 10, MaxNs: 7, Buckets: []uint64{1, 1}}},
	}}
	long := Stats{Stages: []obs.StageSummary{
		{Name: "execute", Snap: obs.Snapshot{Count: 3, SumNs: 3000, MaxNs: 2000, Buckets: []uint64{0, 1, 0, 0, 2}}},
	}}

	check := func(name string, s Stats) {
		t.Helper()
		if len(s.Stages) != 1 || s.Stages[0].Name != "execute" {
			t.Fatalf("%s: stages = %+v", name, s.Stages)
		}
		snap := s.Stages[0].Snap
		if snap.Count != 5 || snap.SumNs != 3010 || snap.MaxNs != 2000 {
			t.Fatalf("%s: merged snapshot = %+v", name, snap)
		}
		want := []uint64{1, 2, 0, 0, 2}
		if len(snap.Buckets) != len(want) {
			t.Fatalf("%s: merged buckets = %v, want %v", name, snap.Buckets, want)
		}
		for i := range want {
			if snap.Buckets[i] != want[i] {
				t.Fatalf("%s: bucket %d = %d, want %d", name, i, snap.Buckets[i], want[i])
			}
		}
	}

	a := short
	a.Stages = obs.MergeStageSummaries(nil, short.Stages) // private copy
	a.Merge(long)
	check("short into long", a)
	if long.Stages[0].Snap.Buckets[1] != 1 {
		t.Fatal("merge mutated the source stats")
	}

	b := long
	b.Stages = obs.MergeStageSummaries(nil, long.Stages)
	b.Merge(short)
	check("long into short", b)
	if short.Stages[0].Snap.Buckets[0] != 1 {
		t.Fatal("merge mutated the source stats")
	}

	// Disjoint stage names union rather than collide.
	c := Stats{Stages: []obs.StageSummary{
		{Name: "queue_wait", Snap: obs.Snapshot{Count: 1, SumNs: 5, MaxNs: 5, Buckets: []uint64{0, 0, 0, 0, 0, 1}}},
	}}
	c.Merge(long)
	if len(c.Stages) != 2 {
		t.Fatalf("disjoint merge: %d stages, want 2", len(c.Stages))
	}
}

// TestStatsConcurrentMergeLiveTraffic aggregates snapshots (the gateway's
// Stats fan-in) while the engine is executing jobs — the -race proof that
// Engine.Stats snapshots, stage histograms included, are safe to read
// and merge concurrently with the workers and callers that write them.
// The traffic mixes resident serves on callers (Submit once a loop is
// armed, and ServeResident itself) with worker runs (first sights and
// SubmitFingerprinted), all recording into the one set of counters.
// Once it stops the counters are exact: Jobs is every job answered,
// each one a cache hit or a miss, and the scheme counts sum to Jobs.
func TestStatsConcurrentMergeLiveTraffic(t *testing.T) {
	loops, _ := mixedLoops()
	e := mustNew(t, Config{Workers: 4})
	defer e.Close()

	// Warm up synchronously so every merger below is guaranteed to see at
	// least one completed job regardless of scheduling.
	if _, err := e.Submit(loops[0]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var traffic sync.WaitGroup
	var answered atomic.Uint64
	answered.Add(1)
	for g := 0; g < 5; g++ {
		traffic.Add(1)
		go func(g int) {
			defer traffic.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				l := loops[(g+i)%len(loops)]
				var err error
				switch g {
				case 3:
					_, err = submitDirect(e, l)
				case 4:
					if _, ok := serveResident(e, l, 0); !ok {
						continue
					}
				default:
					_, err = e.Submit(l)
				}
				if err != nil {
					t.Error(err)
					return
				}
				answered.Add(1)
			}
		}(g)
	}

	var mergers sync.WaitGroup
	for g := 0; g < 4; g++ {
		mergers.Add(1)
		go func() {
			defer mergers.Done()
			var agg Stats
			for i := 0; i < 50; i++ {
				agg.Merge(e.Stats())
			}
			if agg.Jobs == 0 {
				t.Error("merged aggregate saw no jobs despite live traffic")
			}
			for _, st := range agg.Stages {
				if st.Snap.Count == 0 {
					t.Errorf("stage %s reported with zero observations", st.Name)
				}
			}
		}()
	}
	mergers.Wait()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if s := e.Stats(); s.Schemes[residentScheme] > 0 && s.Schemes[residentScheme] < s.Jobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the traffic never mixed resident serves and worker runs")
		}
	}
	close(stop)
	traffic.Wait()

	s := e.Stats()
	var hasExec bool
	for _, st := range s.Stages {
		if st.Name == "execute" {
			hasExec = true
			if q99 := st.Snap.Quantile(0.99); q99 > st.Snap.MaxNs {
				t.Fatalf("execute p99 %d exceeds max %d", q99, st.Snap.MaxNs)
			}
		}
	}
	if !hasExec {
		t.Fatal("final stats carry no execute stage")
	}
	var schemes uint64
	for _, n := range s.Schemes {
		schemes += n
	}
	if n := answered.Load(); s.Jobs != n || s.CacheHits+s.CacheMisses != s.Jobs || schemes != s.Jobs {
		t.Fatalf("jobs %d, hits+misses %d, scheme counts %d; want all three equal to the %d jobs answered",
			s.Jobs, s.CacheHits+s.CacheMisses, schemes, n)
	}
	t.Logf("%d jobs, %d served resident", s.Jobs, s.Schemes[residentScheme])
}
