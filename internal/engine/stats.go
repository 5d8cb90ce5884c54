package engine

import (
	"sync"

	"repro/internal/obs"
)

// Stats is a snapshot of the engine's counters, aggregated over the
// per-worker shards.
type Stats struct {
	Jobs, CacheHits, CacheMisses uint64
	// Batches is the number of executions, which equals Jobs: every job
	// runs on its own. It waits for the next [benchmark] PR, whose
	// engine.jobs_per_batch reading still divides by it.
	Batches uint64
	// CacheEntries is the number of distinct pattern signatures cached;
	// CacheEvictions counts CLOCK victims across all shards.
	CacheEntries   int
	CacheEvictions uint64
	// Recalibrations counts stale-entry re-inspections (fresh
	// characterization through the decision algorithm), whether they
	// revalidated the scheme or counted toward a switch; SchemeSwitches
	// counts the re-inspections that actually replaced an entry's scheme
	// after the hysteresis threshold.
	Recalibrations, SchemeSwitches uint64
	// SegsComputed counts the segments of every resident armed, and
	// SegsReused the segments of every job answered from a resident (a
	// resident serve is counted under Schemes["simplify"]). They wait for
	// the next [benchmark] PR, whose engine.segs_reused_ratio reads them.
	SegsComputed, SegsReused uint64
	// SessionOpens counts streaming sessions registered; SessionJobs
	// counts delta applications served through them. A session's reuse
	// unit is one iteration: SessionSegsComputed counts the iterations
	// an open reduced and an apply's deltas landed in, SessionSegsReused
	// the iterations an apply left alone — kept apart from the resident
	// SegsComputed/SegsReused so the two reuse stories stay separately
	// observable. The pair waits for the next [benchmark] PR, whose
	// session ratio still reads it.
	SessionOpens, SessionJobs              uint64
	SessionSegsComputed, SessionSegsReused uint64
	// Schemes counts executed jobs per scheme name.
	Schemes map[string]uint64
	// Stages holds the engine's per-stage latency histograms (queue_wait,
	// inspect, execute), merged across the worker shards; only stages
	// with observations appear. Snapshots decoded off the wire may carry
	// stage names this build does not know — Merge combines by name.
	Stages []obs.StageSummary
	// Tenants holds the per-tenant slices of the counters above, one row
	// per configured tenant in scheduler order. Empty in single-tenant
	// engines.
	Tenants []TenantStats
}

// TenantStats is one tenant's slice of the engine counters plus the
// admission rejections the serving tier charged against it. Rows merge
// by Name across a gateway's backends.
type TenantStats struct {
	// Name identifies the tenant; Weight is its DRR scheduling weight.
	Name   string
	Weight int
	// Jobs counts reductions executed for the tenant (session operations
	// included).
	Jobs uint64
	// Busy counts submissions the serving tier rejected against the
	// tenant's quota or token bucket (BUSY code 5). The engine itself
	// never rejects — the server folds its counter in before encoding.
	Busy uint64
	// Recalibrations and SchemeSwitches attribute drift re-inspections to
	// the tenant whose batch triggered them.
	Recalibrations, SchemeSwitches uint64
	// QueueWait is the tenant's submission-queue residency histogram —
	// the isolation signal: a flooded tenant's queue wait grows while a
	// well-behaved tenant's stays near its solo baseline.
	QueueWait obs.Snapshot
}

// StatsFields is the schema of Stats' scalars, one row each, in /metrics
// page order. Adding a counter is a struct field, a row here and its
// increment site; the snapshot, Merge, Sub, the STATS codec (which keys
// each value by the row's Key), /metrics and reduxserve's report all
// loop over this table.
var StatsFields = []obs.Field[Stats]{
	{Series: "redux_engine_jobs_total", Help: "Reduction jobs executed.",
		Key: "engine_jobs", U64: func(s *Stats) *uint64 { return &s.Jobs }},
	{Series: "redux_engine_cache_hits_total", Help: "Scheme decisions served from the pattern cache.",
		Key: "cache_hits", U64: func(s *Stats) *uint64 { return &s.CacheHits }},
	{Series: "redux_engine_cache_misses_total", Help: "Scheme decisions that required a fresh inspection.",
		Key: "cache_misses", U64: func(s *Stats) *uint64 { return &s.CacheMisses }},
	{Series: "redux_engine_batches_total", Help: "Executions (one per job).",
		Key: "batches", U64: func(s *Stats) *uint64 { return &s.Batches }},
	{Series: "redux_engine_cache_evictions_total", Help: "Pattern cache CLOCK evictions.",
		Key: "cache_evictions", U64: func(s *Stats) *uint64 { return &s.CacheEvictions }},
	{Series: "redux_engine_recalibrations_total", Help: "Stale-entry re-inspections through the decision algorithm.",
		Key: "recalibrations", U64: func(s *Stats) *uint64 { return &s.Recalibrations }},
	{Series: "redux_engine_scheme_switches_total", Help: "Recalibrations that replaced a cached scheme.",
		Key: "scheme_switches", U64: func(s *Stats) *uint64 { return &s.SchemeSwitches }},
	{Series: "redux_engine_segments_computed_total", Help: "Segments of the resident results armed.",
		Key: "segments_computed", U64: func(s *Stats) *uint64 { return &s.SegsComputed }},
	{Series: "redux_engine_segments_reused_total", Help: "Segments of the jobs answered from a resident result.",
		Key: "segments_reused", U64: func(s *Stats) *uint64 { return &s.SegsReused }},
	{Series: "redux_engine_session_opens_total", Help: "Streaming sessions registered.",
		Key: "session_opens", U64: func(s *Stats) *uint64 { return &s.SessionOpens }},
	{Series: "redux_engine_session_jobs_total", Help: "Delta batches applied through streaming sessions.",
		Key: "session_jobs", U64: func(s *Stats) *uint64 { return &s.SessionJobs }},
	{Series: "redux_engine_session_segments_computed_total", Help: "Session segments recomputed because a delta touched them.",
		Key: "session_segments_computed", U64: func(s *Stats) *uint64 { return &s.SessionSegsComputed }},
	{Series: "redux_engine_session_segments_reused_total", Help: "Session segments reused intact across a delta apply.",
		Key: "session_segments_reused", U64: func(s *Stats) *uint64 { return &s.SessionSegsReused }},
	{Kind: obs.Gauge, Series: "redux_engine_cache_entries", Help: "Distinct pattern signatures currently cached.",
		Key: "cache_entries", Int: func(s *Stats) *int { return &s.CacheEntries }},
}

// Row constants of TenantFields; they index a tenantRT's counters.
const (
	tenantJobs = iota
	tenantBusy
	tenantRecalibrations
	tenantSchemeSwitches
	tenantWeight
	numTenantFields
)

// TenantFields is the schema of TenantStats' scalars, in /metrics page
// order; each row renders one sample per tenant, labelled tenant=Name.
var TenantFields = []obs.Field[TenantStats]{
	tenantJobs: {Series: "redux_engine_tenant_jobs_total", Help: "Reduction jobs executed per tenant.",
		Key: "jobs", U64: func(t *TenantStats) *uint64 { return &t.Jobs }},
	tenantBusy: {Series: "redux_engine_tenant_busy_total", Help: "Jobs rejected by the tenant's admission quotas (BUSY tenant answers).",
		Key: "busy", U64: func(t *TenantStats) *uint64 { return &t.Busy }},
	tenantRecalibrations: {Series: "redux_engine_tenant_recalibrations_total", Help: "Stale-entry re-inspections triggered by the tenant's batches.",
		Key: "recalibrations", U64: func(t *TenantStats) *uint64 { return &t.Recalibrations }},
	tenantSchemeSwitches: {Series: "redux_engine_tenant_scheme_switches_total", Help: "Recalibrations by the tenant's batches that replaced a cached scheme.",
		Key: "scheme_switches", U64: func(t *TenantStats) *uint64 { return &t.SchemeSwitches }},
	tenantWeight: {Kind: obs.Setting, Series: "redux_engine_tenant_weight", Help: "Configured DRR scheduling weight per tenant.",
		Key: "weight", Int: func(t *TenantStats) *int { return &t.Weight }},
}

// tenant returns s's row for the named tenant, appending a zero row the
// first time a name is seen.
func (s *Stats) tenant(name string) *TenantStats {
	for i := range s.Tenants {
		if s.Tenants[i].Name == name {
			return &s.Tenants[i]
		}
	}
	s.Tenants = append(s.Tenants, TenantStats{Name: name})
	return &s.Tenants[len(s.Tenants)-1]
}

// Merge adds o's counters into s — how a gateway aggregates the STATS
// snapshots of many backends into one cluster-wide answer. Scalars
// combine by their StatsFields kind: counters sum, and so does
// CacheEntries, so with pattern affinity intact the total equals the
// distinct-pattern count across the tier, and exceeds it exactly when a
// pattern was characterized on more than one backend (affinity broke).
// Scheme counts sum; stages and tenant rows merge by name. s never
// keeps a reference into o's storage.
func (s *Stats) Merge(o Stats) {
	obs.MergeFields(StatsFields, s, &o)
	if len(o.Schemes) > 0 && s.Schemes == nil {
		s.Schemes = make(map[string]uint64, len(o.Schemes))
	}
	for k, v := range o.Schemes {
		s.Schemes[k] += v
	}
	s.Stages = obs.MergeStageSummaries(s.Stages, o.Stages)
	for i := range o.Tenants {
		ot := &o.Tenants[i]
		t := s.tenant(ot.Name)
		obs.MergeFields(TenantFields, t, ot)
		t.QueueWait.Merge(ot.QueueWait)
	}
}

// Sub returns what s accumulated since the earlier snapshot old of the
// same engine (or tier): counters, scheme counts and each tenant row's
// counters are differences; gauges, settings and the
// latency histograms (Stages, a tenant's QueueWait) are s's own, being
// levels rather than totals. Schemes that did not move are dropped.
func (s Stats) Sub(old Stats) Stats {
	d := s
	obs.SubFields(StatsFields, &d, &old)
	d.Schemes = make(map[string]uint64)
	for k, v := range s.Schemes {
		if v -= old.Schemes[k]; v > 0 {
			d.Schemes[k] = v
		}
	}
	d.Tenants = append([]TenantStats(nil), s.Tenants...)
	for i := range d.Tenants {
		for j := range old.Tenants {
			if old.Tenants[j].Name == d.Tenants[i].Name {
				obs.SubFields(TenantFields, &d.Tenants[i], &old.Tenants[j])
			}
		}
	}
	return d
}

// statShard is one worker's private counters. Every worker owns exactly
// one shard and is its only writer, so the per-batch update never contends
// with other workers — this replaces the global scheme-counter mutex the
// single-queue engine serialized every job through. The one extra caller
// shard (Engine.caller) is shared by the goroutines that serve work
// themselves; its mutex and the lock-free stages serialize them. Stats()
// takes each shard's mutex briefly to read a consistent snapshot.
type statShard struct {
	mu sync.Mutex
	// c holds the shard's scalar counters in the snapshot's own fields
	// (the two the cache owns stay zero here; the non-scalar fields are
	// unused — schemes below are the shard's).
	c       Stats
	schemes map[string]uint64
	// stages holds the shard's stage-latency histograms. It lives outside
	// the mutex: writers record through lock-free atomics and
	// Stats() reads racy-but-consistent-enough snapshots, so instrumenting
	// a stage never lengthens the critical section above.
	stages obs.StageSet
}

func newStatShards(workers int) []statShard {
	shards := make([]statShard, workers)
	for i := range shards {
		shards[i].schemes = make(map[string]uint64)
	}
	return shards
}

// record accounts one executed job under the given scheme; hit is its
// decision-cache lookup outcome.
func (s *statShard) record(scheme string, hit bool) {
	s.mu.Lock()
	s.c.Jobs++
	s.c.Batches++
	if hit {
		s.c.CacheHits++
	} else {
		s.c.CacheMisses++
	}
	s.schemes[scheme]++
	s.mu.Unlock()
}

// recordSegs accounts a resident's segments: computed when it was
// armed, reused when it answered a job.
func (s *statShard) recordSegs(computed, reused int) {
	s.mu.Lock()
	s.c.SegsComputed += uint64(computed)
	s.c.SegsReused += uint64(reused)
	s.mu.Unlock()
}

// recordSession accounts one streaming-session operation: a session
// registration (open) or a delta application with its segment
// computed/reused split. Session work stays out of the job/batch/scheme
// counters — it is a different serving mode, and folding it into the
// one-shot numbers would skew the execution and cache-hit stories.
func (s *statShard) recordSession(open bool, computed, reused int) {
	s.mu.Lock()
	if open {
		s.c.SessionOpens++
	} else {
		s.c.SessionJobs++
	}
	s.c.SessionSegsComputed += uint64(computed)
	s.c.SessionSegsReused += uint64(reused)
	s.mu.Unlock()
}

// recordRecal accounts one stale-entry re-inspection, and whether it
// switched the entry's scheme.
func (s *statShard) recordRecal(switched bool) {
	s.mu.Lock()
	s.c.Recalibrations++
	if switched {
		s.c.SchemeSwitches++
	}
	s.mu.Unlock()
}

// Stats snapshots the engine's counters, the caller shard's included.
func (e *Engine) Stats() Stats {
	s := Stats{Schemes: make(map[string]uint64)}
	for i := range e.statShards {
		sh := &e.statShards[i]
		sh.mu.Lock()
		obs.MergeFields(StatsFields, &s, &sh.c)
		for k, v := range sh.schemes {
			s.Schemes[k] += v
		}
		sh.mu.Unlock()
		s.Stages = obs.MergeStageSummaries(s.Stages, sh.stages.Snapshot())
	}
	s.CacheEntries, s.CacheEvictions = e.cache.Len(), e.cache.Evictions()
	// Tenant rows only exist in multi-tenant engines.
	if len(e.tenants) > 1 {
		s.Tenants = make([]TenantStats, 0, len(e.tenants))
		for _, t := range e.tenants {
			s.Tenants = append(s.Tenants, t.snapshot())
		}
	}
	return s
}
