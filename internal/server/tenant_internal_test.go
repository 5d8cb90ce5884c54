package server

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestTokenBucketFakeClock pins the refill arithmetic against a fake
// clock: bursts spend down to zero, elapsed time refills at the
// configured rate, and the level never exceeds the burst cap — so a
// tenant's admission schedule is a deterministic function of arrival
// times, not of scheduler jitter.
func TestTokenBucketFakeClock(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	b := newTokenBucket(10, 3, clock)

	for i := 0; i < 3; i++ {
		if !b.take() {
			t.Fatalf("take %d within burst refused", i)
		}
	}
	if b.take() {
		t.Fatal("take past burst admitted with no time elapsed")
	}

	now = now.Add(100 * time.Millisecond) // 10/s * 0.1s = exactly 1 token
	if !b.take() {
		t.Fatal("refilled token refused")
	}
	if b.take() {
		t.Fatal("second take admitted after a one-token refill")
	}

	now = now.Add(time.Hour) // refill far past the cap
	for i := 0; i < 3; i++ {
		if !b.take() {
			t.Fatalf("take %d after long idle refused — burst cap lost", i)
		}
	}
	if b.take() {
		t.Fatal("long idle banked more than the burst cap")
	}

	// Refund restores exactly what was charged, still capped at burst.
	b.refund()
	if !b.take() {
		t.Fatal("refunded token refused")
	}
	for i := 0; i < 10; i++ {
		b.refund()
	}
	taken := 0
	for b.take() {
		taken++
	}
	if taken != 3 {
		t.Fatalf("over-refunding yielded %d tokens, burst cap is 3", taken)
	}
}

func TestTokenBucketDefaults(t *testing.T) {
	// Zero burst defaults to max(1, rate).
	b := newTokenBucket(5, 0, func() time.Time { return time.Unix(0, 0) })
	taken := 0
	for b.take() {
		taken++
	}
	if taken != 5 {
		t.Fatalf("default burst = %d, want rate 5", taken)
	}
	b = newTokenBucket(0.5, 0, func() time.Time { return time.Unix(0, 0) })
	if !b.take() {
		t.Fatal("sub-1 rate must still default to a burst of 1")
	}
}

func TestParseTenantSpecs(t *testing.T) {
	specs, err := ParseTenantSpecs("gold:4:500:64:128, bronze:1, capped:2::16, limited:1:200")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantSpec{
		{Name: "gold", Weight: 4, Rate: 500, Burst: 64, MaxInflight: 128},
		{Name: "bronze", Weight: 1},
		{Name: "capped", Weight: 2, Burst: 16},
		{Name: "limited", Weight: 1, Rate: 200},
	}
	if len(specs) != len(want) {
		t.Fatalf("parsed %d specs, want %d", len(specs), len(want))
	}
	for i, w := range want {
		if specs[i] != w {
			t.Errorf("spec %d = %+v, want %+v", i, specs[i], w)
		}
	}

	for _, bad := range []string{
		":4",          // empty name
		"a:zero",      // non-numeric weight
		"a:0",         // weight below 1
		"a:1:-5",      // negative rate
		"a:1:NaN",     // NaN rate: every bucket comparison is false, so no limit at all
		"a:1:NaN:4",   // the same with a finite burst
		"a:1:inf",     // infinite rate
		"a:1:5:NaN",   // NaN burst
		"a:1:5:+Inf",  // infinite burst
		"a:1:1:1:1:1", // too many fields
	} {
		if _, err := ParseTenantSpecs(bad); err == nil {
			t.Errorf("ParseTenantSpecs(%q) accepted invalid input", bad)
		}
	}
}

// FuzzParseTenantSpecs holds the -tenants parser to its contract on any
// input: whatever it accepts is a usable admission contract (a name, a
// weight the DRR scheduler can use, limits a token bucket can compare
// against), and the accepted value survives a round trip through the
// flag syntax.
func FuzzParseTenantSpecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := ParseTenantSpecs(s)
		if err != nil {
			return
		}
		finite := func(v float64) bool { return v >= 0 && !math.IsInf(v, 0) }
		entries := make([]string, len(specs))
		for i, sp := range specs {
			if sp.Name == "" || sp.Weight < 1 || !finite(sp.Rate) || !finite(sp.Burst) || sp.MaxInflight < 0 {
				t.Fatalf("ParseTenantSpecs(%q) accepted %+v", s, sp)
			}
			entries[i] = strings.Join([]string{
				sp.Name,
				strconv.Itoa(sp.Weight),
				strconv.FormatFloat(sp.Rate, 'g', -1, 64),
				strconv.FormatFloat(sp.Burst, 'g', -1, 64),
				strconv.Itoa(sp.MaxInflight),
			}, ":")
		}
		rendered := strings.Join(entries, ",")
		again, err := ParseTenantSpecs(rendered)
		if err != nil || !slices.Equal(again, specs) {
			t.Fatalf("ParseTenantSpecs(%q) = %+v, but its rendering %q re-parses to %+v, %v", s, specs, rendered, again, err)
		}
	})
}

func TestBuildTenantTableDefault(t *testing.T) {
	byName, list := buildTenantTable(nil, nil)
	if len(list) != 1 || list[0].name != engine.DefaultTenant {
		t.Fatalf("empty config built %d tenants, want the bare default", len(list))
	}
	if byName[engine.DefaultTenant].maxInflight != 0 || byName[engine.DefaultTenant].bucket != nil {
		t.Fatal("bare default tenant must be unlimited")
	}

	byName, list = buildTenantTable([]TenantSpec{
		{Name: engine.DefaultTenant, Weight: 2, MaxInflight: 8},
		{Name: "gold", Weight: 4, Rate: 100},
	}, nil)
	if len(list) != 2 {
		t.Fatalf("built %d tenants, want 2 (default overridden in place)", len(list))
	}
	if d := byName[engine.DefaultTenant]; d.weight != 2 || d.maxInflight != 8 {
		t.Fatalf("default override lost: %+v", d)
	}
	if g := byName["gold"]; g.bucket == nil {
		t.Fatal("gold's rate limit missing")
	}
}

func TestMergeTenantBusy(t *testing.T) {
	// Single-tenant server: strictly a no-op so legacy frames stay
	// byte-identical.
	s := NewWithDispatcher(nil, Config{})
	st := engine.Stats{}
	s.MergeTenantBusy(&st)
	if len(st.Tenants) != 0 {
		t.Fatalf("single-tenant merge added %d rows", len(st.Tenants))
	}

	s = NewWithDispatcher(nil, Config{Tenants: []TenantSpec{{Name: "gold", Weight: 4}}})
	s.tenants["gold"].busy.Store(7)
	s.tenants[engine.DefaultTenant].busy.Store(2)
	st = engine.Stats{Tenants: []engine.TenantStats{{Name: "gold", Weight: 4, Jobs: 11}}}
	s.MergeTenantBusy(&st)
	if len(st.Tenants) != 2 {
		t.Fatalf("merged to %d rows, want gold matched + default appended", len(st.Tenants))
	}
	if st.Tenants[0].Busy != 7 || st.Tenants[0].Jobs != 11 {
		t.Errorf("gold row = %+v, want busy 7 folded into jobs 11", st.Tenants[0])
	}
	if st.Tenants[1].Name != engine.DefaultTenant || st.Tenants[1].Busy != 2 {
		t.Errorf("appended row = %+v, want default with busy 2", st.Tenants[1])
	}
	if got := s.TenantBusy("gold"); got != 7 {
		t.Errorf("TenantBusy(gold) = %d, want 7", got)
	}
}
