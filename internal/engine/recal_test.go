package engine

import (
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// recalConfig is the deterministic recalibration shape the tests run
// under: one worker (batches execute in submission order), a huge
// DriftRatio so wall-clock noise cannot mark entries stale (only the
// periodic re-profile can), a short re-profile period and the default
// hysteresis depth of 2. The tests submit through submitDirect: Submit
// would answer a repeated loop from its resident, and the drift detector
// only measures direct executions.
func recalConfig() Config {
	return Config{
		Workers:    1,
		Platform:   core.DefaultPlatform(8),
		DriftRatio: 1e9,
		RecalEvery: 4,
	}
}

// TestRecalSwitchesSchemeAfterDrift is the tentpole's acceptance test: a
// decision cached in one phase is re-inspected and switched once the
// same-fingerprint traffic's pattern has drifted into another scheme's
// regime — and every result stays correct throughout, because all
// library schemes compute the same reduction.
func TestRecalSwitchesSchemeAfterDrift(t *testing.T) {
	ds := workloads.NewDriftStream(1, 2, 1, 1.4, 0.5, 1)
	sparse, dense := ds.Phases[0][0], ds.Phases[1][0]
	wantSparse, wantDense := sparse.RunSequential(), dense.RunSequential()

	e := mustNew(t, recalConfig())
	defer e.Close()

	// Phase 0: the entry decides hash on the sparse pattern.
	for i := 0; i < 3; i++ {
		res, err := submitDirect(e, sparse)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scheme != "hash" {
			t.Fatalf("sparse phase submission %d ran %s, want hash", i, res.Scheme)
		}
		assertMatches(t, "sparse", res.Values, wantSparse)
	}

	// Phase shift: the dense variant shares the fingerprint, so every
	// submission hits the old entry. The entry has 3 executions behind
	// it, so RecalEvery=4 re-profiles on the first post-shift execution,
	// marking it stale; the two following batches re-inspect (hysteresis
	// 2) and the second one switches. From then on the entry serves ll.
	schemes := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		res, err := submitDirect(e, dense)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Fatalf("dense submission %d missed the cache: fingerprint drifted, scenario broken", i)
		}
		assertMatches(t, "dense", res.Values, wantDense)
		schemes = append(schemes, res.Scheme)
	}
	switched := -1
	for i, s := range schemes {
		if s == "ll" {
			switched = i
			break
		}
		if s != "hash" {
			t.Fatalf("submission %d ran %s, want hash (pre-switch) or ll (post)", i, s)
		}
	}
	if switched < 0 {
		t.Fatalf("entry never switched scheme across 12 drifted submissions: %v", schemes)
	}
	for i := switched; i < len(schemes); i++ {
		if schemes[i] != "ll" {
			t.Fatalf("submission %d ran %s after the switch at %d: thrashing", i, schemes[i], switched)
		}
	}
	// Re-profile on post-shift submission 0 (the entry's 4th execution),
	// then hysteresis needs 2 re-inspections: submissions 1 and 2. The
	// schedule is deterministic with one worker.
	if switched != 2 {
		t.Fatalf("switch landed at submission %d, want 2 (re-profile, then 2 hysteresis confirmations)", switched)
	}

	s := e.Stats()
	if s.SchemeSwitches != 1 {
		t.Fatalf("SchemeSwitches = %d, want 1", s.SchemeSwitches)
	}
	if s.Recalibrations < 2 {
		t.Fatalf("Recalibrations = %d, want >= 2 (hysteresis re-inspections)", s.Recalibrations)
	}
	if s.CacheEntries != 1 {
		t.Fatalf("CacheEntries = %d, want 1 (both phases share the entry)", s.CacheEntries)
	}
}

// TestRecalHysteresisDepth pins the confirmation count: with
// RecalConfirm=3, the stale entry keeps executing its old scheme through
// the first two re-inspections and switches only on the third.
func TestRecalHysteresisDepth(t *testing.T) {
	ds := workloads.NewDriftStream(1, 2, 1, 1.4, 0.5, 2)
	sparse, dense := ds.Phases[0][0], ds.Phases[1][0]

	cfg := recalConfig()
	cfg.RecalConfirm = 3
	e := mustNew(t, cfg)
	defer e.Close()

	for i := 0; i < 3; i++ {
		if _, err := submitDirect(e, sparse); err != nil {
			t.Fatal(err)
		}
	}
	// Post-shift: the warm phase left the entry 3 executions in, so the
	// re-profile fires on post-shift submission 1 (still hash);
	// re-inspections run on submissions 2, 3 and 4, and only the third
	// confirmation switches — submission 4 is the first on ll.
	for i := 1; i <= 12; i++ {
		res, err := submitDirect(e, dense)
		if err != nil {
			t.Fatal(err)
		}
		want := "hash"
		if i >= 4 {
			want = "ll"
		}
		if res.Scheme != want {
			t.Fatalf("post-shift submission %d ran %s, want %s", i, res.Scheme, want)
		}
	}
	if s := e.Stats(); s.SchemeSwitches != 1 || s.Recalibrations != 3 {
		t.Fatalf("switches/recals = %d/%d, want 1/3", s.SchemeSwitches, s.Recalibrations)
	}
}

// TestRecalNoDriftNoSwitch is the control: steady same-pattern traffic
// across many re-profile periods must never switch schemes — periodic
// re-profiles of an undrifted pattern revalidate, and hysteresis means
// even a spurious staleness could not flip the scheme without a
// genuinely changed recommendation.
func TestRecalNoDriftNoSwitch(t *testing.T) {
	ds := workloads.NewDriftStream(1, 1, 1, 1.4, 0.5, 3)
	l := ds.Phases[0][0]
	want := l.RunSequential()

	e := mustNew(t, recalConfig()) // RecalEvery=4: many periods below
	defer e.Close()

	for i := 0; i < 40; i++ {
		res, err := submitDirect(e, l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scheme != "hash" {
			t.Fatalf("submission %d ran %s, want hash throughout", i, res.Scheme)
		}
		assertMatches(t, l.Name, res.Values, want)
	}
	s := e.Stats()
	if s.SchemeSwitches != 0 {
		t.Fatalf("SchemeSwitches = %d on undrifted traffic, want 0", s.SchemeSwitches)
	}
	if s.Recalibrations != 0 {
		t.Fatalf("Recalibrations = %d on undrifted traffic, want 0 (re-profiles must revalidate silently)", s.Recalibrations)
	}
}

// TestRecalLLReinspectedAsLWRevalidates: lw is served by ll, so a stale
// ll entry whose re-inspection the tree answers lw revalidates instead of
// switching, even at RecalConfirm 1, where one differing served scheme
// would switch at once. The loop is Fig. 3's Irreg input 3 (seed 103),
// which the tree sends to lw at 8 processors; the entry is forced to an
// earlier ll decision, as a phase the tree read as ll would leave it.
func TestRecalLLReinspectedAsLWRevalidates(t *testing.T) {
	var l *trace.Loop
	for _, r := range workloads.Fig3Rows() {
		if r.Spec.Seed == 103 {
			l = r.Generate(0.15)
		}
	}
	want := l.RunSequential()
	cfg := recalConfig()
	cfg.RecalConfirm = 1
	e := mustNew(t, cfg)
	defer e.Close()
	if tree := adapt.Recommend(e.characterize(l)); tree.Scheme != "lw" {
		t.Fatalf("the tree picks %s (%s), want lw: the scenario needs lw's regime", tree.Scheme, tree.Why)
	}
	if _, err := submitDirect(e, l); err != nil {
		t.Fatal(err)
	}
	entry, _ := e.lookup(l, l.Fingerprint())
	entry.mu.Lock()
	entry.install(entry.profile, adapt.Recommendation{Scheme: "ll", Why: "forced earlier ll decision"})
	entry.stale = true
	entry.mu.Unlock()

	base := e.Stats()
	res, err := submitDirect(e, l)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if got := s.Recalibrations - base.Recalibrations; got != 1 {
		t.Errorf("Recalibrations moved by %d, want 1", got)
	}
	if got := s.SchemeSwitches - base.SchemeSwitches; got != 0 {
		t.Errorf("SchemeSwitches moved by %d, want 0: the tree's lw is served by the entry's ll", got)
	}
	if res.Scheme != "ll" {
		t.Errorf("re-inspected job ran %s, want ll", res.Scheme)
	}
	if entryStale(entry) {
		t.Error("the entry is still stale after a revalidating re-inspection")
	}
	assertMatches(t, l.Name, res.Values, want)
}

// TestRecalDisabled: with DisableRecal the engine is the
// pre-recalibration engine — drifted traffic keeps the stale scheme
// forever and no counters move.
func TestRecalDisabled(t *testing.T) {
	ds := workloads.NewDriftStream(1, 2, 1, 1.4, 0.5, 4)
	sparse, dense := ds.Phases[0][0], ds.Phases[1][0]

	cfg := recalConfig()
	cfg.DisableRecal = true
	e := mustNew(t, cfg)
	defer e.Close()

	for i := 0; i < 3; i++ {
		if _, err := submitDirect(e, sparse); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		res, err := submitDirect(e, dense)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scheme != "hash" {
			t.Fatalf("recal disabled but submission %d ran %s", i, res.Scheme)
		}
	}
	if s := e.Stats(); s.Recalibrations != 0 || s.SchemeSwitches != 0 {
		t.Fatalf("recal disabled but counters moved: %d/%d", s.Recalibrations, s.SchemeSwitches)
	}
}

// TestRecalCostDriftTriggersReinspection drives the EWMA path directly:
// a synthetic cost sequence diverging past DriftRatio must mark the
// entry stale, and a stale entry whose pattern still recommends the
// same scheme must revalidate (no switch).
func TestRecalCostDriftTriggersReinspection(t *testing.T) {
	ds := workloads.NewDriftStream(1, 1, 1, 1.4, 0.5, 5)
	l := ds.Phases[0][0]
	cfg := recalConfig()
	cfg.DriftRatio = 1.5
	cfg.RecalEvery = 1 << 30 // periodic re-profile effectively off
	e := mustNew(t, cfg)
	defer e.Close()

	entry, _ := e.lookup(l, l.Fingerprint())
	// Anchor at ~1000ns over the seed executions, then feed a cost
	// plateau 10x higher: the EWMA crosses 1.5x the anchor and the entry
	// goes stale.
	for i := 0; i < RecalSeedExecs; i++ {
		e.recordCost(entry, l, 1000, 0)
	}
	for i := 0; i < 20 && !entryStale(entry); i++ {
		e.recordCost(entry, l, 10000, 0)
	}
	if !entryStale(entry) {
		t.Fatal("10x cost plateau never marked the entry stale")
	}
	// Same pattern underneath: the re-inspection must revalidate, clear
	// staleness and re-anchor, not switch.
	reinspected, switched := e.maybeReinspect(entry, l)
	if !reinspected || switched {
		t.Fatalf("reinspected/switched = %v/%v, want true/false", reinspected, switched)
	}
	if entryStale(entry) {
		t.Fatal("entry still stale after revalidation")
	}
}

func entryStale(en *Entry) bool {
	en.mu.Lock()
	defer en.mu.Unlock()
	return en.stale
}

// TestRecalConfigValidation rejects nonsense knobs.
func TestRecalConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{DriftRatio: -1},
		{DriftRatio: 0.5},
		{DriftRatio: 1},
		{RecalEvery: -1},
		{RecalConfirm: -2},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted an invalid recalibration config", cfg)
		}
	}
}

// TestResidentAcrossDriftPhaseShift runs a DriftStream phase shift
// through Submit, so residents answer (the other recalibration tests
// submit direct). Every answer is RunSequential's bits of its own
// phase's loop; the first submission of a key in the new phase is never
// answered from the old phase's resident; and each key's new content is
// answered resident once it has come back, from the third submission of
// the phase on (one run records its hashes, the next arms).
func TestResidentAcrossDriftPhaseShift(t *testing.T) {
	ds := workloads.NewDriftStream(2, 2, 64, 1.4, 0.5, 3)
	e := mustNew(t, recalConfig())
	defer e.Close()
	type key struct{ phase, key int }
	of := map[*trace.Loop]key{}
	want := map[*trace.Loop][]float64{}
	for p, phase := range ds.Phases {
		for k, l := range phase {
			of[l], want[l] = key{p, k}, l.RunSequential()
		}
	}
	for k := range ds.Phases[0] {
		if bitDiffs(want[ds.Phases[0][k]], want[ds.Phases[1][k]]) == 0 {
			t.Fatalf("key %d answers the same in both phases", k)
		}
	}
	seen := map[key]int{}
	firstResident := map[key]int{}
	for i, l := range ds.Stream {
		res, err := e.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		if d := bitDiffs(res.Values, want[l]); d > 0 {
			t.Fatalf("job %d (%s, %s): %d elements differ from its own phase's RunSequential", i, l.Name, res.Scheme, d)
		}
		k := of[l]
		seen[k]++
		if res.Why == residentWhy {
			if _, ok := firstResident[k]; !ok {
				firstResident[k] = seen[k]
			}
		}
	}
	t.Logf("submissions per (phase, key) %v, first resident at %v", seen, firstResident)
	for k, n := range seen {
		at, ok := firstResident[k]
		switch {
		case !ok && n >= 4:
			t.Errorf("phase %d key %d: %d submissions, never answered resident", k.phase, k.key, n)
		case ok && k.phase > 0 && at < 3:
			t.Errorf("phase %d key %d: answered resident at its submission %d, before its content came back", k.phase, k.key, at)
		}
	}
}
