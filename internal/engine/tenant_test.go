package engine

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

func TestBuildTenantsValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfgs []TenantConfig
	}{
		{"empty name", []TenantConfig{{Name: "", Weight: 1}}},
		{"negative weight", []TenantConfig{{Name: "a", Weight: -2}}},
		{"duplicate", []TenantConfig{{Name: "a", Weight: 1}, {Name: "a", Weight: 2}}},
	} {
		if _, _, err := buildTenants(tc.cfgs); err == nil {
			t.Errorf("%s: buildTenants accepted invalid config", tc.name)
		}
	}
}

func TestTenantIndexAndDefault(t *testing.T) {
	e := mustNew(t, Config{Workers: 1, Tenants: []TenantConfig{
		{Name: "gold", Weight: 4},
		{Name: "bronze", Weight: 1},
	}})
	defer e.Close()

	names := e.Tenants()
	if len(names) != 3 || names[0] != DefaultTenant || names[1] != "gold" || names[2] != "bronze" {
		t.Fatalf("tenant list = %v, want [default gold bronze]", names)
	}
	if i := e.TenantIndex("gold"); i != 1 {
		t.Errorf("TenantIndex(gold) = %d, want 1", i)
	}
	if i := e.TenantIndex(""); i != 0 {
		t.Errorf("TenantIndex(\"\") = %d, want 0 (default)", i)
	}
	if i := e.TenantIndex("nobody"); i != 0 {
		t.Errorf("TenantIndex(unknown) = %d, want 0 (degrade to default)", i)
	}
}

// TestTenantDefaultWeightOverride pins that a config entry named
// "default" re-weights the implicit tenant 0 instead of adding a row.
func TestTenantDefaultWeightOverride(t *testing.T) {
	e := mustNew(t, Config{Workers: 1, Tenants: []TenantConfig{
		{Name: DefaultTenant, Weight: 3},
		{Name: "gold", Weight: 4},
	}})
	defer e.Close()
	if got := e.Tenants(); len(got) != 2 {
		t.Fatalf("tenant list = %v, want 2 entries", got)
	}
	s := e.Stats()
	if len(s.Tenants) != 2 || s.Tenants[0].Name != DefaultTenant || s.Tenants[0].Weight != 3 {
		t.Fatalf("stats rows = %+v, want default with weight 3 first", s.Tenants)
	}
}

// TestTenantStatsAttribution runs real jobs under two tenants and checks
// the per-tenant rows slice the global counters correctly — and that a
// single-tenant engine emits no rows at all, keeping legacy STATS frames
// byte-identical.
func TestTenantStatsAttribution(t *testing.T) {
	loops, refs := mixedLoops()
	e := mustNew(t, Config{Workers: 2, Tenants: []TenantConfig{{Name: "gold", Weight: 4}}})
	defer e.Close()

	gold := e.TenantIndex("gold")
	const perTenant = 6
	run := func(tenant int) {
		for n := 0; n < perTenant; n++ {
			l := loops[n%len(loops)]
			h, err := e.SubmitAsyncIntoTenant(l, nil, tenant)
			if err != nil {
				t.Fatal(err)
			}
			res := h.Wait()
			assertMatches(t, l.Name, res.Values, refs[n%len(loops)])
		}
	}
	run(0)
	run(gold)

	s := e.Stats()
	if len(s.Tenants) != 2 {
		t.Fatalf("got %d tenant rows, want 2", len(s.Tenants))
	}
	var totalJobs uint64
	for _, row := range s.Tenants {
		if row.Jobs != perTenant {
			t.Errorf("tenant %s: %d jobs, want %d", row.Name, row.Jobs, perTenant)
		}
		if row.Batches == 0 || row.Batches > row.Jobs {
			t.Errorf("tenant %s: %d batches for %d jobs", row.Name, row.Batches, row.Jobs)
		}
		if row.QueueWait.Count == 0 {
			t.Errorf("tenant %s: queue-wait histogram never observed", row.Name)
		}
		totalJobs += row.Jobs
	}
	if totalJobs != s.Jobs {
		t.Errorf("tenant rows sum to %d jobs, engine counted %d", totalJobs, s.Jobs)
	}

	single := mustNew(t, Config{Workers: 1})
	defer single.Close()
	if _, err := single.Submit(loops[0]); err != nil {
		t.Fatal(err)
	}
	if rows := single.Stats().Tenants; len(rows) != 0 {
		t.Fatalf("single-tenant engine emitted %d tenant rows, want none", len(rows))
	}
}

// TestTenantStatsMerge pins the cross-node aggregation the gateway runs:
// rows merge by name, weights survive zero-valued sides, and unmatched
// rows append.
func TestTenantStatsMerge(t *testing.T) {
	a := Stats{Tenants: []TenantStats{
		{Name: "default", Weight: 1, Jobs: 10},
		{Name: "gold", Weight: 4, Jobs: 5, Busy: 2},
	}}
	b := Stats{Tenants: []TenantStats{
		{Name: "gold", Jobs: 7, Busy: 1},
		{Name: "bronze", Weight: 2, Jobs: 3},
	}}
	a.Merge(b)
	if len(a.Tenants) != 3 {
		t.Fatalf("merged to %d rows, want 3", len(a.Tenants))
	}
	byName := map[string]TenantStats{}
	for _, row := range a.Tenants {
		byName[row.Name] = row
	}
	if g := byName["gold"]; g.Jobs != 12 || g.Busy != 3 || g.Weight != 4 {
		t.Errorf("gold merged to %+v, want jobs 12, busy 3, weight 4", g)
	}
	if br := byName["bronze"]; br.Jobs != 3 || br.Weight != 2 {
		t.Errorf("bronze appended as %+v", br)
	}

	// A row seen for the first time must be copied, not adopted: the
	// gateway merges many backends' snapshots into one aggregate, and a
	// row that kept pointing into the first backend's bucket slice would
	// have the second backend's counts added into the first's snapshot.
	first := Stats{Tenants: []TenantStats{{Name: "gold", Jobs: 1,
		QueueWait: obs.Snapshot{Count: 3, SumNs: 30, MaxNs: 20, Buckets: []uint64{1, 2}}}}}
	second := Stats{Tenants: []TenantStats{{Name: "gold", Jobs: 2,
		QueueWait: obs.Snapshot{Count: 7, SumNs: 70, MaxNs: 40, Buckets: []uint64{3, 4}}}}}
	var agg Stats
	agg.Merge(first)
	agg.Merge(second)
	if got := first.Tenants[0].QueueWait.Buckets; got[0] != 1 || got[1] != 2 {
		t.Errorf("merging a second snapshot rewrote the first one's buckets to %v", got)
	}
	if q := agg.Tenants[0].QueueWait; agg.Tenants[0].Jobs != 3 || q.Count != 10 || q.Buckets[0] != 4 || q.Buckets[1] != 6 {
		t.Errorf("aggregate row %+v, want jobs 3, count 10, buckets [4 6]", agg.Tenants[0])
	}
}

// fillStats sets every schema scalar of a snapshot — and of each of its
// tenant rows — to base, base+1, ... so no two fields agree.
func fillStats(s *Stats, base uint64) {
	for i := range StatsFields {
		StatsFields[i].Set(s, base+uint64(i))
	}
	for r := range s.Tenants {
		for i := range TenantFields {
			TenantFields[i].Set(&s.Tenants[r], base+100*uint64(r+1)+uint64(i))
		}
	}
}

// TestStatsMergeSubAlgebra pins the two table-driven folds against each
// other: for any snapshots a and b, Merge(a, b).Sub(b) gives a back on
// every counter (scalars, schemes, occupancy, tenant rows), while gauges
// and settings are carried from the merged side rather than subtracted.
func TestStatsMergeSubAlgebra(t *testing.T) {
	a := Stats{
		Schemes:        map[string]uint64{"rep": 5, "ll": 2},
		BatchOccupancy: []uint64{0, 4, 1},
		Tenants:        []TenantStats{{Name: "default"}, {Name: "gold"}},
	}
	b := Stats{
		Schemes:        map[string]uint64{"rep": 9},
		BatchOccupancy: []uint64{0, 7},
		Tenants:        []TenantStats{{Name: "gold"}},
	}
	fillStats(&a, 1000)
	fillStats(&b, 5000)

	sum := Stats{}
	sum.Merge(a)
	sum.Merge(b)
	back := sum.Sub(b)

	for i := range StatsFields {
		f := &StatsFields[i]
		want := f.Get(&a)
		if f.Kind != obs.Counter {
			want = f.Get(&sum)
		}
		if got := f.Get(&back); got != want {
			t.Errorf("%s: Merge(a,b).Sub(b) = %d, want %d", f.Series, got, want)
		}
	}
	if back.CacheEntries != a.CacheEntries+b.CacheEntries {
		t.Errorf("CacheEntries gauge = %d, want the merged level %d", back.CacheEntries, a.CacheEntries+b.CacheEntries)
	}
	if !reflect.DeepEqual(back.Schemes, a.Schemes) {
		t.Errorf("schemes = %v, want %v", back.Schemes, a.Schemes)
	}
	if !reflect.DeepEqual(back.BatchOccupancy, a.BatchOccupancy) {
		t.Errorf("occupancy = %v, want %v", back.BatchOccupancy, a.BatchOccupancy)
	}
	for r := range a.Tenants {
		for i := range TenantFields {
			f := &TenantFields[i]
			// Weight is a setting: both sides agree on a deployment, so
			// the merged row keeps the first one it saw — a's.
			if got, want := f.Get(&back.Tenants[r]), f.Get(&a.Tenants[r]); got != want {
				t.Errorf("tenant %s %s: got %d, want %d", a.Tenants[r].Name, f.Series, got, want)
			}
		}
	}
	if sum.Tenants[1].Jobs != a.Tenants[1].Jobs+b.Tenants[0].Jobs {
		t.Errorf("Sub mutated its receiver: %+v", sum.Tenants[1])
	}
}
