package workloads

import "repro/internal/trace"

// TenantMixStream builds one Zipf-skewed job stream per tenant over
// per-tenant disjoint pattern populations: tenant i's patterns use a seed
// block and dimension offset no other tenant touches, so no fingerprint
// collides across tenants and cross-tenant sharing of cached decisions
// or segment sums is structurally impossible. That makes the streams the right input for isolation
// experiments — any throughput a background tenant loses to a hot tenant
// is scheduling interference, never accidental sharing. lengths[i] is
// tenant i's offered job count (the caller scales these by tenant weight
// for a fairness run, or cranks one tenant to 10x for an isolation run);
// patterns is the per-tenant population size.
func TenantMixStream(lengths []int, patterns int, scale float64, seed int64) [][]*trace.Loop {
	streams := make([][]*trace.Loop, len(lengths))
	for i, n := range lengths {
		loops := HotKeySet(patterns, scale)
		for _, l := range loops {
			// Re-shape each pattern into the tenant's disjoint slice of the
			// population: a tenant-specific dimension offset guarantees
			// distinct fingerprints even where seeds alone would not.
			l.NumElems += 128 * (i + 1)
		}
		streams[i] = ZipfStream(loops, n, 1.3, seed+int64(i)*7919)
	}
	return streams
}
