// Package core is the host descriptor: what the serving stack knows
// about the machine it runs on, carried as data. It holds no behaviour
// and imports nothing from this repository, so every layer — the
// reduction kernels, the engine, the daemons, the benchmark — can read
// it without pulling in a machine model.
//
// The values are still the paper's Table 1 geometry rather than the
// host's; a calibrated descriptor (ROADMAP item 3(b)) fills this struct
// instead of replacing it. The paper's simulated machine, and the
// SmartApps runtime that predicts against it, are the lab (see
// docs/ARCHITECTURE.md, "Service and lab").
package core

// Cache is the cache geometry the stack sizes its working sets for.
type Cache struct {
	// L2Bytes is the per-processor last-level private cache capacity. It
	// normalizes the DIM pattern metric (array bytes / L2Bytes) that the
	// decision algorithm thresholds, and sizes the blocks in which the
	// replicated schemes merge their private copies.
	L2Bytes int
}

// Platform describes the machine a reduction executes on.
type Platform struct {
	// Procs is the processor count: the goroutine fan-out per job.
	Procs int
	// Cfg is the cache geometry.
	Cfg Cache
}

// DefaultPlatform returns a procs-processor platform with the default
// 512 KB L2 — the single definition of that default: the reduction
// package's merge-block fallback, the engine's inspector and its merge
// blocks all read it from here.
func DefaultPlatform(procs int) Platform {
	return Platform{Procs: procs, Cfg: Cache{L2Bytes: 512 << 10}}
}
