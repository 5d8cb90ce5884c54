package engine

import (
	"math/rand"
	"testing"
)

// drrOracle is a brute-force reference of the unit-cost DRR policy, built
// the way drrQueue deliberately is not: one arrival-ordered slice scanned
// linearly per pop, no per-tenant FIFOs, no head indices. The two share
// only the policy's specification — round pointer over tenants in index
// order, deficit replenished from the weight when a backlogged tenant is
// reached with none, one credit per job, forfeiture when a tenant
// empties — so agreement on random traces pins the optimized queue
// against the spec, in the style of the DeltaState oracle suite.
type drrOracle struct {
	weights []int
	deficit []int
	cur     int
	arrived []oracleItem
}

type oracleItem struct{ tenant, id int }

func newDRROracle(weights []int) *drrOracle {
	return &drrOracle{weights: weights, deficit: make([]int, len(weights))}
}

func (o *drrOracle) push(tenant, id int) {
	o.arrived = append(o.arrived, oracleItem{tenant, id})
}

func (o *drrOracle) backlog(tenant int) int {
	n := 0
	for _, it := range o.arrived {
		if it.tenant == tenant {
			n++
		}
	}
	return n
}

func (o *drrOracle) pop() (oracleItem, bool) {
	if len(o.arrived) == 0 {
		return oracleItem{}, false
	}
	for {
		if o.backlog(o.cur) == 0 {
			o.deficit[o.cur] = 0
			o.cur = (o.cur + 1) % len(o.weights)
			continue
		}
		if o.deficit[o.cur] == 0 {
			o.deficit[o.cur] = o.weights[o.cur]
		}
		for i, it := range o.arrived {
			if it.tenant != o.cur {
				continue
			}
			o.arrived = append(o.arrived[:i], o.arrived[i+1:]...)
			o.deficit[o.cur]--
			if o.backlog(o.cur) == 0 {
				o.deficit[o.cur] = 0
				o.cur = (o.cur + 1) % len(o.weights)
			} else if o.deficit[o.cur] == 0 {
				o.cur = (o.cur + 1) % len(o.weights)
			}
			return it, true
		}
	}
}

// TestDRRMatchesOracle replays seeded random arrival/service traces —
// random tenant counts, weights, and push/pop interleavings — through
// drrQueue and the brute-force oracle, requiring the exact same job on
// every pop. Fingerprints carry the job identity across the queue.
func TestDRRMatchesOracle(t *testing.T) {
	const depth = 16
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ntenants := 1 + rng.Intn(4)
		weights := make([]int, ntenants)
		for i := range weights {
			weights[i] = 1 + rng.Intn(5)
		}
		q := newDRRQueue(weights, depth)
		o := newDRROracle(weights)
		queued := make([]int, ntenants) // mirror of per-tenant occupancy so pushes never block
		total, nextID := 0, 0
		for step := 0; step < 2000; step++ {
			tenant := rng.Intn(ntenants)
			if rng.Intn(3) != 0 && queued[tenant] < depth {
				b := &job{fp: uint64(nextID), tenant: tenant}
				if !q.push(tenant, b) {
					t.Fatalf("seed %d: push on open queue refused", seed)
				}
				o.push(tenant, nextID)
				queued[tenant]++
				total++
				nextID++
			} else if total > 0 {
				got := q.pop()
				want, ok := o.pop()
				if !ok || got == nil {
					t.Fatalf("seed %d step %d: pop on non-empty queue returned nothing", seed, step)
				}
				if int(got.fp) != want.id || got.tenant != want.tenant {
					t.Fatalf("seed %d step %d: queue served job %d (tenant %d), oracle %d (tenant %d)",
						seed, step, got.fp, got.tenant, want.id, want.tenant)
				}
				queued[got.tenant]--
				total--
			}
		}
		// Drain fully: the tail must agree too (deficit forfeiture on the
		// way down is where a banked-credit bug would surface).
		for total > 0 {
			got := q.pop()
			want, _ := o.pop()
			if int(got.fp) != want.id {
				t.Fatalf("seed %d drain: queue served %d, oracle %d", seed, got.fp, want.id)
			}
			total--
		}
		if q.queued() != 0 {
			t.Fatalf("seed %d: %d jobs stranded after drain", seed, q.queued())
		}
	}
}

// TestDRRSharesUnderSaturation pins share convergence exactly: with every
// tenant continuously backlogged, each round of sum(weights) pops serves
// tenant i precisely weight_i times — the weighted-fair guarantee the
// multi-tenant engine advertises, with no tolerance band needed because
// unit-cost DRR is deterministic.
func TestDRRSharesUnderSaturation(t *testing.T) {
	weights := []int{4, 2, 1, 1}
	sumW := 0
	for _, w := range weights {
		sumW += w
	}
	const rounds = 25
	q := newDRRQueue(weights, rounds*8)
	for tenant, w := range weights {
		for j := 0; j < rounds*w; j++ {
			q.push(tenant, &job{tenant: tenant})
		}
	}
	served := make([]int, len(weights))
	for r := 0; r < rounds; r++ {
		roundServed := make([]int, len(weights))
		for i := 0; i < sumW; i++ {
			b := q.pop()
			roundServed[b.tenant]++
			served[b.tenant]++
		}
		for tenant, w := range weights {
			if roundServed[tenant] != w {
				t.Fatalf("round %d: tenant %d served %d, want exactly weight %d", r, tenant, roundServed[tenant], w)
			}
		}
	}
	for tenant, w := range weights {
		if served[tenant] != rounds*w {
			t.Fatalf("tenant %d served %d over %d rounds, want %d", tenant, served[tenant], rounds, rounds*w)
		}
	}
}

// TestDRRWorkConservation pins that capacity never idles on an absent
// tenant: with only one tenant backlogged, every pop serves it — idle
// tenants neither receive service nor bank credit for later.
func TestDRRWorkConservation(t *testing.T) {
	weights := []int{3, 2, 5}
	q := newDRRQueue(weights, 64)
	for phase := 0; phase < len(weights)*3; phase++ {
		tenant := phase % len(weights)
		for j := 0; j < 10; j++ {
			q.push(tenant, &job{tenant: tenant})
		}
		for j := 0; j < 10; j++ {
			if b := q.pop(); b.tenant != tenant {
				t.Fatalf("phase %d: pop served idle tenant %d while %d was the only backlog", phase, b.tenant, tenant)
			}
		}
	}
	// A tenant that sat idle through other phases must not have banked
	// service: after all phases, one round over fresh equal backlog still
	// follows the weights exactly.
	for tenant := range weights {
		for j := 0; j < 10; j++ {
			q.push(tenant, &job{tenant: tenant})
		}
	}
	counts := make([]int, len(weights))
	for i := 0; i < 3+2+5; i++ {
		counts[q.pop().tenant]++
	}
	for tenant, w := range weights {
		if counts[tenant] != w {
			t.Fatalf("post-idle round: tenant %d served %d, want %d", tenant, counts[tenant], w)
		}
	}
}

// TestDRRStarvationFreedom bounds the service gap adversarially: however
// hard the other tenants flood, a backlogged tenant waits at most one
// round — sum of the other tenants' weights — between consecutive
// services.
func TestDRRStarvationFreedom(t *testing.T) {
	weights := []int{8, 8, 1} // tenant 2 is the weight-1 victim
	otherW := weights[0] + weights[1]
	q := newDRRQueue(weights, 4096)
	for j := 0; j < 2000; j++ {
		q.push(0, &job{tenant: 0})
		q.push(1, &job{tenant: 1})
	}
	const victimJobs = 100
	for j := 0; j < victimJobs; j++ {
		q.push(2, &job{tenant: 2})
	}
	gap, victimServed := 0, 0
	for victimServed < victimJobs {
		b := q.pop()
		if b.tenant == 2 {
			victimServed++
			gap = 0
			continue
		}
		gap++
		if gap > otherW {
			t.Fatalf("victim tenant starved for %d pops (bound %d) after %d services", gap, otherW, victimServed)
		}
	}
}

// TestDRRIsolationAdversarial is the deterministic half of the isolation
// story (the wall-clock half lives in BenchmarkTenantIsolation): a hot
// tenant holding a 10x standing backlog may not stretch a background
// job's queue residency beyond one DRR round, measured in service
// ticks. Without per-tenant queues the same job would wait behind the
// entire hot backlog.
func TestDRRIsolationAdversarial(t *testing.T) {
	weights := []int{1, 1}
	sumW := 2
	q := newDRRQueue(weights, 8192)
	hotBacklog := 5000
	for j := 0; j < hotBacklog; j++ {
		q.push(0, &job{tenant: 0})
	}
	for trial := 0; trial < 50; trial++ {
		q.push(1, &job{tenant: 1})
		ticks := 0
		for {
			ticks++
			if q.pop().tenant == 1 {
				break
			}
		}
		if ticks > sumW {
			t.Fatalf("trial %d: background job waited %d service ticks behind a hot backlog (bound %d)", trial, ticks, sumW)
		}
		// Keep the hot backlog standing at 10x-forever pressure.
		q.push(0, &job{tenant: 0})
		q.push(0, &job{tenant: 0})
	}
}
