package server

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// TenantSpec is one tenant's admission-control and scheduling contract,
// the server-side superset of engine.TenantConfig: the weight feeds the
// engine's deficit-round-robin scheduler, while the rate/burst/quota
// triple is enforced here at the front door, before a job ever reaches
// the queue. Zero rate means no rate limit; zero quota means no
// per-tenant in-flight bound.
type TenantSpec struct {
	// Name identifies the tenant; clients bind to it with the HELLO
	// tenant field. "default" configures the tenant unidentified clients
	// land on.
	Name string
	// Weight is the tenant's DRR scheduling weight (min 1).
	Weight int
	// Rate is the sustained admission rate in jobs per second (0 = no
	// rate limit).
	Rate float64
	// Burst is the token-bucket depth: how many jobs may arrive
	// back-to-back before the rate bites. Defaults to max(1, Rate) when
	// a rate is set.
	Burst float64
	// MaxInflight bounds the tenant's jobs in flight across all of its
	// connections (0 = no bound).
	MaxInflight int
}

// ParseTenantSpecs parses the -tenants flag syntax: a comma-separated
// list of name[:weight[:rate[:burst[:quota]]]] entries, fields optional
// from the right. "gold:4:500:64:128,best-effort:1" declares a gold
// tenant with weight 4, 500 jobs/s sustained, bursts of 64 and at most
// 128 in flight, plus an unlimited weight-1 best-effort tenant.
func ParseTenantSpecs(s string) ([]TenantSpec, error) {
	var specs []TenantSpec
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) > 5 {
			return nil, fmt.Errorf("server: tenant spec %q: too many fields", entry)
		}
		sp := TenantSpec{Name: strings.TrimSpace(parts[0]), Weight: 1}
		if sp.Name == "" {
			return nil, fmt.Errorf("server: tenant spec %q: empty name", entry)
		}
		var err error
		if len(parts) > 1 && parts[1] != "" {
			if sp.Weight, err = strconv.Atoi(parts[1]); err != nil || sp.Weight < 1 {
				return nil, fmt.Errorf("server: tenant %s: bad weight %q", sp.Name, parts[1])
			}
		}
		if len(parts) > 2 && parts[2] != "" {
			if sp.Rate, err = parseLimit(parts[2]); err != nil {
				return nil, fmt.Errorf("server: tenant %s: bad rate %q", sp.Name, parts[2])
			}
		}
		if len(parts) > 3 && parts[3] != "" {
			if sp.Burst, err = parseLimit(parts[3]); err != nil {
				return nil, fmt.Errorf("server: tenant %s: bad burst %q", sp.Name, parts[3])
			}
		}
		if len(parts) > 4 && parts[4] != "" {
			if sp.MaxInflight, err = strconv.Atoi(parts[4]); err != nil || sp.MaxInflight < 0 {
				return nil, fmt.Errorf("server: tenant %s: bad quota %q", sp.Name, parts[4])
			}
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// parseLimit parses a rate or burst: a finite, non-negative number.
// strconv.ParseFloat accepts "NaN" and "Inf", and NaN passes a `< 0`
// check — in a token bucket it then makes both the cap and the empty
// comparison false, so every take is granted.
func parseLimit(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0) || v < 0) {
		err = strconv.ErrRange
	}
	return v, err
}

// EngineTenants projects the scheduling half of the specs — the part the
// engine's weighted queues need — so reduxd configures both layers from
// one flag.
func EngineTenants(specs []TenantSpec) []engine.TenantConfig {
	out := make([]engine.TenantConfig, 0, len(specs))
	for _, sp := range specs {
		out = append(out, engine.TenantConfig{Name: sp.Name, Weight: sp.Weight})
	}
	return out
}

// tokenBucket is a classic leaky-bucket rate limiter with a pluggable
// clock (tests pin refill arithmetic against a fake one). take charges
// one token, lazily refilling from elapsed wall time; refund returns a
// token when admission later rolls back (the global gate rejected a job
// the bucket already charged).
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	rate   float64 // tokens per second
	burst  float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate, burst float64, now func() time.Time) *tokenBucket {
	if now == nil {
		now = time.Now
	}
	if burst < 1 {
		burst = rate
		if burst < 1 {
			burst = 1
		}
	}
	return &tokenBucket{tokens: burst, rate: rate, burst: burst, now: now, last: now()}
}

func (b *tokenBucket) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.now()
	b.tokens += t.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = t
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

func (b *tokenBucket) refund() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens++
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// tenantState is one tenant's live admission state: the token bucket and
// in-flight gauge the admit path charges, plus the rejection counter the
// stats path folds into the engine's per-tenant rows (the engine never
// sees rejected jobs, so BUSY(BusyTenant) counts live here).
type tenantState struct {
	name        string
	weight      int
	maxInflight int64        // 0 = unbounded
	bucket      *tokenBucket // nil = no rate limit

	inflight atomic.Int64
	busy     atomic.Uint64
}

// buildTenantTable realizes the configured specs, always materializing
// the default tenant first (unlimited unless a spec named "default"
// overrides it) so unidentified connections have somewhere to land.
func buildTenantTable(specs []TenantSpec, now func() time.Time) (map[string]*tenantState, []*tenantState) {
	def := &tenantState{name: engine.DefaultTenant, weight: 1}
	byName := map[string]*tenantState{def.name: def}
	list := []*tenantState{def}
	for _, sp := range specs {
		ts := byName[sp.Name]
		if ts == nil {
			ts = &tenantState{name: sp.Name}
			byName[sp.Name] = ts
			list = append(list, ts)
		}
		ts.weight = sp.Weight
		if ts.weight < 1 {
			ts.weight = 1
		}
		ts.maxInflight = int64(sp.MaxInflight)
		if sp.Rate > 0 {
			ts.bucket = newTokenBucket(sp.Rate, sp.Burst, now)
		}
	}
	return byName, list
}

// tenantFor resolves a HELLO-supplied tenant name; unknown names degrade
// to the default tenant rather than failing the connection, mirroring
// the engine's TenantIndex.
func (s *Server) tenantFor(name string) *tenantState {
	if ts := s.tenants[name]; ts != nil {
		return ts
	}
	return s.tenantList[0]
}

// MergeTenantBusy folds the server-side per-tenant rejection counters
// into an engine stats snapshot's tenant rows, matching by name and
// appending rows for tenants the engine has not seen yet. The engine
// cannot count these itself: a job rejected by BUSY(BusyTenant) never
// reaches it. No-op on single-tenant servers so legacy STATS frames stay
// byte-identical.
func (s *Server) MergeTenantBusy(st *engine.Stats) {
	if len(s.tenantList) <= 1 {
		return
	}
	rows := make([]engine.TenantStats, len(s.tenantList))
	for i, ts := range s.tenantList {
		rows[i] = engine.TenantStats{Name: ts.name, Weight: ts.weight, Busy: ts.busy.Load()}
	}
	st.Merge(engine.Stats{Tenants: rows})
}

// TenantBusy reports one tenant's admission rejections (0 for unknown
// names) — the per-tenant slice of the server Busy counter.
func (s *Server) TenantBusy(name string) uint64 {
	if ts := s.tenants[name]; ts != nil {
		return ts.busy.Load()
	}
	return 0
}
