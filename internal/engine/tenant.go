package engine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
)

// TenantConfig names one tenant and its share of the engine. Weights are
// relative: under saturation a tenant receives weight/sum(weights) of
// the executions (the DRR guarantee), and any share a tenant does
// not use flows to the backlogged ones (work conservation).
type TenantConfig struct {
	// Name identifies the tenant; clients claim it in their HELLO frame.
	Name string
	// Weight is the DRR scheduling weight. 0 means 1; negative is a
	// configuration error.
	Weight int
}

// DefaultTenant is the identity of traffic that claims no tenant;
// multi-tenant configs always include it at index 0.
const DefaultTenant = "default"

// tenantRT is one tenant's runtime state: its scheduling identity plus
// the per-tenant counters runJob records. Counters are atomics — a job
// bumps its tenant's row exactly once, so there is nothing to shard.
type tenantRT struct {
	name   string
	weight int

	// n holds the tenant's counters, indexed by TenantFields row constant
	// (Busy is the serving tier's to count, so it stays zero here; the
	// Weight slot is unused).
	n         [numTenantFields]atomic.Uint64
	queueWait obs.Histogram
}

func (t *tenantRT) snapshot() TenantStats {
	ts := TenantStats{Name: t.name, Weight: t.weight, QueueWait: t.queueWait.Snapshot()}
	for i := range TenantFields {
		if f := &TenantFields[i]; f.Kind == obs.Counter {
			f.Set(&ts, t.n[i].Load())
		}
	}
	return ts
}

// countJob counts one of the tenant's jobs.
func (t *tenantRT) countJob() { t.n[tenantJobs].Add(1) }

// buildTenants turns the configured tenant list into the runtime table.
// Index 0 is always the default tenant; a config entry named "default"
// adjusts its weight instead of adding a row. Order is preserved — it is
// the DRR round order and the index space SubmitAsyncIntoTenant uses.
func buildTenants(cfgs []TenantConfig) ([]*tenantRT, map[string]int, error) {
	tenants := []*tenantRT{{name: DefaultTenant, weight: 1}}
	idx := map[string]int{DefaultTenant: 0}
	for _, tc := range cfgs {
		if tc.Name == "" {
			return nil, nil, fmt.Errorf("engine: tenant with empty name")
		}
		if tc.Weight < 0 {
			return nil, nil, fmt.Errorf("engine: tenant %q has negative weight %d", tc.Name, tc.Weight)
		}
		w := tc.Weight
		if w == 0 {
			w = 1
		}
		if i, dup := idx[tc.Name]; dup {
			if tc.Name != DefaultTenant {
				return nil, nil, fmt.Errorf("engine: duplicate tenant %q", tc.Name)
			}
			tenants[i].weight = w
			continue
		}
		idx[tc.Name] = len(tenants)
		tenants = append(tenants, &tenantRT{name: tc.Name, weight: w})
	}
	return tenants, idx, nil
}

// TenantIndex resolves a tenant name to its scheduler index. Unknown
// names (and the empty name) map to the default tenant — an
// unrecognized HELLO claim degrades to the default tenant rather than an
// error, so config skew between tiers cannot reject traffic.
func (e *Engine) TenantIndex(name string) int {
	if i, ok := e.tenantIdx[name]; ok {
		return i
	}
	return 0
}

// Tenants reports the configured tenant names in scheduler order.
func (e *Engine) Tenants() []string {
	names := make([]string, len(e.tenants))
	for i, t := range e.tenants {
		names[i] = t.name
	}
	return names
}
