// Package vtime provides a deterministic virtual-time execution substrate.
//
// The paper's Figure 3 study measures the five software reduction schemes
// on a real 8-processor shared-memory machine. This reproduction runs on a
// host whose parallelism is not guaranteed (possibly a single core), so
// wall-clock speedups are meaningless. Instead, each virtual processor
// replays the memory accesses its scheme actually performs through a
// private two-level cache model and is charged deterministic cycle costs
// (Table 1's latencies); the time of a parallel phase is the maximum charge
// across processors, and serial phases are charged directly. This preserves
// exactly the effects that differentiate the schemes — initialization and
// merge volume, loop-body locality, contention on shared lines — which is
// what the paper's measured ordering reflects.
package vtime

import (
	"fmt"

	"repro/internal/simcache"
)

// Config holds the cost model parameters. Defaults mirror the paper's
// Table 1 memory hierarchy.
type Config struct {
	// L1Bytes, L1Assoc describe the first-level cache (32 KB, 2-way).
	L1Bytes, L1Assoc int
	// L2Bytes, L2Assoc describe the second-level cache (512 KB, 4-way).
	L2Bytes, L2Assoc int
	// LineBytes is the cache line size in bytes (64 B at both levels).
	LineBytes int

	// L1HitCycles, L2HitCycles, MemCycles are contention-free round-trip
	// latencies in processor cycles (2, 10, 104 in Table 1).
	L1HitCycles  float64
	L2HitCycles  float64
	MemCycles    float64
	RemoteCycles float64 // 2-hop latency (297 in Table 1)

	// CPI is the cycle charge per non-memory instruction. The paper's
	// processor is 4-issue dynamic; sustained non-memory IPC near 2 is
	// typical for these irregular codes, so the default CPI is 0.5.
	CPI float64

	// CoherencePenalty is the extra cycle charge for an access that misses
	// because another virtual processor holds the line modified
	// (invalidation + cache-to-cache transfer). Charged only when sharing
	// tracking is enabled on the machine.
	CoherencePenalty float64

	// StreamOverlap is the memory-level-parallelism factor for
	// sequential sweep accesses (StreamLoad/StreamStore): the modeled
	// processor has 8 pending loads and 16 pending stores (Table 1), so
	// independent sequential misses overlap and each one is charged only
	// 1/StreamOverlap of the miss latency. Dependent random accesses
	// (Load/Store) always pay the full latency.
	StreamOverlap float64

	// TLBEntries, PageBytes and TLBMissCycles model the translation
	// lookaside buffer. The paper's explanation of why hash reductions
	// win on very sparse patterns — "the hash table reduces the allocated
	// and processed space to such an extent that ... the performance
	// improves dramatically" — is an address-translation-footprint
	// effect: schemes whose private structures span the whole reduction
	// array touch hundreds of pages, while a compact hash table lives on
	// a few. TLBEntries == 0 disables the model.
	TLBEntries    int
	PageBytes     int
	TLBMissCycles float64
}

// DefaultConfig returns the Table 1 cost model.
func DefaultConfig() Config {
	return Config{
		L1Bytes: 32 << 10, L1Assoc: 2,
		L2Bytes: 512 << 10, L2Assoc: 4,
		LineBytes:   64,
		L1HitCycles: 2, L2HitCycles: 10, MemCycles: 104, RemoteCycles: 297,
		CPI:              0.5,
		CoherencePenalty: 193, // RemoteCycles - MemCycles: a dirty remote hit costs a 2-hop trip
		StreamOverlap:    8,
		TLBEntries:       64,
		PageBytes:        8 << 10,
		TLBMissCycles:    50,
	}
}

// cache is one set-associative true-LRU tag array: a simcache.Level in
// which every resident line holds the same (Clean) state.
type cache struct{ *simcache.Level }

func newCache(bytes, assoc, lineBytes int) cache {
	return cache{simcache.NewLevel(bytes, assoc, lineBytes)}
}

// access looks up line, returns whether it hit, and installs it (LRU
// replacement) on a miss. evicted is the line pushed out, or -1.
func (c cache) access(line int64) (hit bool, evicted int64) {
	hit, ev := c.Access(line, simcache.Clean)
	return hit, ev.Line
}

// flush invalidates every line and returns how many valid lines were held.
func (c cache) flush() int { return len(c.FlushState(simcache.Clean)) }

// CPU is one virtual processor: a private two-level cache plus a cycle
// accumulator. Addresses are abstract byte addresses in a flat address
// space managed by the caller (see Machine.PrivateBase / SharedBase).
type CPU struct {
	id     int
	cfg    *Config
	l1, l2 cache
	tlb    cache // fully associative, line == page; zero when disabled
	cycles float64

	loads, stores, l1Misses, l2Misses, tlbMisses int64

	m *Machine
}

// ID returns the processor index.
func (c *CPU) ID() int { return c.id }

// Cycles returns the cycles accumulated since the CPU was last reset.
func (c *CPU) Cycles() float64 { return c.cycles }

// Compute charges instr non-memory instructions.
func (c *CPU) Compute(instr float64) {
	c.cycles += instr * c.cfg.CPI
}

// Stall charges raw cycles (used for fixed overheads such as system calls).
func (c *CPU) Stall(cycles float64) { c.cycles += cycles }

// Load charges one read of the 8-byte word at addr.
func (c *CPU) Load(addr int64) { c.memAccess(addr, false, 1) }

// Store charges one write of the 8-byte word at addr.
func (c *CPU) Store(addr int64) { c.memAccess(addr, true, 1) }

// StreamLoad charges a read that is part of a sequential sweep: misses
// overlap under the processor's non-blocking memory system, so the miss
// penalty is divided by Config.StreamOverlap.
func (c *CPU) StreamLoad(addr int64) { c.memAccess(addr, false, c.streamOverlap()) }

// StreamStore charges a write that is part of a sequential sweep.
func (c *CPU) StreamStore(addr int64) { c.memAccess(addr, true, c.streamOverlap()) }

func (c *CPU) streamOverlap() float64 {
	if c.cfg.StreamOverlap <= 1 {
		return 1
	}
	return c.cfg.StreamOverlap
}

func (c *CPU) memAccess(addr int64, write bool, overlap float64) {
	if write {
		c.stores++
	} else {
		c.loads++
	}
	line := addr >> c.cfg.lineBits()
	tracking := c.m != nil && c.m.trackSharing

	if c.tlb.Level != nil {
		if hit, _ := c.tlb.access(addr / int64(c.cfg.PageBytes)); !hit {
			c.tlbMisses++
			// Page-table walks are dependent loads; they do not overlap
			// the way streaming data misses do, but a sequential sweep
			// amortizes one walk over a whole page.
			c.cycles += c.cfg.TLBMissCycles
		}
	}

	// Phase-concurrent sharing. Per-CPU replay within a phase is
	// sequential, so ping-ponging of lines written by several processors
	// cannot emerge from the cache state; it is charged analytically
	// instead: if o other processors write this line during the phase,
	// an access is invalidated-under-us with expected frequency o/(o+1)
	// and pays that fraction of the coherence penalty.
	chargedShare := false
	if tracking {
		if w := c.m.phaseWriters[line]; w&^(1<<uint(c.id)) != 0 {
			o := onesCount64(w &^ (1 << uint(c.id)))
			c.cycles += c.cfg.CoherencePenalty * float64(o) / float64(o+1)
			chargedShare = true
		}
	}

	if hit, _ := c.l1.access(line); hit {
		c.cycles += c.cfg.L1HitCycles
		if write && tracking {
			c.m.noteWrite(c.id, line)
		}
		return
	}
	c.l1Misses++
	if hit, _ := c.l2.access(line); hit {
		c.cycles += c.cfg.L2HitCycles / overlap
		if write && tracking {
			c.m.noteWrite(c.id, line)
		}
		return
	}
	c.l2Misses++
	cost := c.cfg.MemCycles
	if tracking {
		// A miss to a line dirtied by another processor in an earlier
		// phase is a cache-to-cache transfer (2-hop cost). Skipped when
		// the phase-concurrent charge above already covered the line.
		if owner, dirty := c.m.lineOwner(line); dirty && owner != c.id && !chargedShare {
			cost += c.cfg.CoherencePenalty
		}
		if write {
			c.m.noteWrite(c.id, line)
		}
	}
	c.cycles += cost / overlap
}

// onesCount64 is bits.OnesCount64 (kept local to avoid importing math/bits
// in multiple spots).
func onesCount64(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// FlushCaches invalidates both cache levels and charges the write-back
// cost of the dirty reduction lines: count lines, each costing a memory
// round trip amortized by pipelining (half MemCycles each). Returns the
// number of lines that were flushed.
func (c *CPU) FlushCaches() int {
	n := c.l1.flush() + c.l2.flush()
	c.cycles += float64(n) * c.cfg.MemCycles / 2
	return n
}

// Counters returns the CPU's access statistics.
func (c *CPU) Counters() (loads, stores, l1Misses, l2Misses int64) {
	return c.loads, c.stores, c.l1Misses, c.l2Misses
}

// TLBMisses returns the number of TLB misses charged so far.
func (c *CPU) TLBMisses() int64 { return c.tlbMisses }

func (cfg *Config) lineBits() uint {
	b := uint(0)
	for 1<<b < cfg.LineBytes {
		b++
	}
	return b
}

// Machine is a set of virtual CPUs sharing a flat address space and a
// global virtual clock. Phases advance the clock: a Parallel phase by the
// maximum per-CPU charge, a Serial phase by CPU 0's charge.
type Machine struct {
	cfg  Config
	cpus []*CPU
	now  float64

	trackSharing bool
	owners       map[int64]int32  // line -> last writing CPU (dirty), persistent
	phaseWriters map[int64]uint64 // line -> bitmap of CPUs that wrote it this phase
}

// NewMachine builds a machine with procs virtual processors.
func NewMachine(procs int, cfg Config) *Machine {
	if procs < 1 {
		panic(fmt.Sprintf("vtime: invalid processor count %d", procs))
	}
	if cfg.LineBytes == 0 {
		cfg = DefaultConfig()
	}
	if procs > 64 {
		panic(fmt.Sprintf("vtime: at most 64 virtual processors supported, got %d", procs))
	}
	m := &Machine{cfg: cfg, owners: make(map[int64]int32), phaseWriters: make(map[int64]uint64)}
	for i := 0; i < procs; i++ {
		cpu := &CPU{
			id:  i,
			cfg: &m.cfg,
			l1:  newCache(cfg.L1Bytes, cfg.L1Assoc, cfg.LineBytes),
			l2:  newCache(cfg.L2Bytes, cfg.L2Assoc, cfg.LineBytes),
			m:   m,
		}
		if cfg.TLBEntries > 0 {
			// One set of TLBEntries ways over page-sized "lines".
			cpu.tlb = newCache(cfg.TLBEntries*cfg.PageBytes, cfg.TLBEntries, cfg.PageBytes)
		}
		m.cpus = append(m.cpus, cpu)
	}
	return m
}

// Procs returns the processor count.
func (m *Machine) Procs() int { return len(m.cpus) }

// Config returns the machine's cost model.
func (m *Machine) Config() Config { return m.cfg }

// EnableSharingTracking turns on dirty-line ownership tracking so that
// misses to lines last written by another CPU pay the coherence penalty.
func (m *Machine) EnableSharingTracking() { m.trackSharing = true }

func (m *Machine) noteWrite(cpu int, line int64) {
	// An invalidation-based protocol: gaining write ownership of a line
	// removes every other processor's copy, so a later access by them
	// misses (and, via the owners map, pays the cache-to-cache transfer
	// cost). Invalidation is unconditional because the model does not
	// track read-sharer sets; invalidating an uncached line is harmless.
	for _, other := range m.cpus {
		if other.id == cpu {
			continue
		}
		other.l1.Invalidate(line)
		other.l2.Invalidate(line)
	}
	m.owners[line] = int32(cpu)
	m.phaseWriters[line] |= 1 << uint(cpu)
}

func (m *Machine) lineOwner(line int64) (owner int, dirty bool) {
	o, ok := m.owners[line]
	return int(o), ok
}

// Now returns the machine's virtual time in cycles.
func (m *Machine) Now() float64 { return m.now }

// Parallel runs body once per CPU (deterministically, in CPU order) and
// advances the clock by the maximum per-CPU charge. It returns that
// maximum (the phase's virtual duration).
func (m *Machine) Parallel(body func(cpu *CPU)) float64 {
	return m.ParallelScaled(1, body)
}

// ParallelScaled runs a parallel phase whose cycle charge is multiplied
// by scale. It models amortization: a phase whose result is reused across
// K invocations of a loop (an inspector pass) costs 1/K per invocation,
// while its cache side effects still occur. scale must be in (0, 1].
func (m *Machine) ParallelScaled(scale float64, body func(cpu *CPU)) float64 {
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("vtime: phase scale %g outside (0,1]", scale))
	}
	m.beginPhase()
	if m.trackSharing && len(m.cpus) > 1 {
		// Replay is sequential per CPU, so a single pass would let later
		// CPUs see earlier CPUs' writes but not vice versa. Run the phase
		// once to collect the full writer sets, roll everything back, and
		// charge the real pass against the complete sets. Phase bodies
		// must therefore be idempotent in their effects outside the CPU.
		snap := m.snapshot()
		for _, c := range m.cpus {
			body(c)
		}
		writers := m.phaseWriters
		m.restore(snap)
		m.phaseWriters = writers
	}
	var maxDelta float64
	for _, c := range m.cpus {
		start := c.cycles
		body(c)
		d := (c.cycles - start) * scale
		c.cycles = start + d
		if d > maxDelta {
			maxDelta = d
		}
	}
	m.now += maxDelta
	return maxDelta
}

// machineSnapshot captures the mutable simulation state of a machine.
type machineSnapshot struct {
	cycles      []float64
	counters    [][5]int64
	l1, l2, tlb []cache
	owners      map[int64]int32
}

func (m *Machine) snapshot() machineSnapshot {
	s := machineSnapshot{owners: make(map[int64]int32, len(m.owners))}
	for _, c := range m.cpus {
		s.cycles = append(s.cycles, c.cycles)
		s.counters = append(s.counters, [5]int64{c.loads, c.stores, c.l1Misses, c.l2Misses, c.tlbMisses})
		s.l1 = append(s.l1, cache{c.l1.Clone()})
		s.l2 = append(s.l2, cache{c.l2.Clone()})
		s.tlb = append(s.tlb, cache{c.tlb.Clone()})
	}
	for k, v := range m.owners {
		s.owners[k] = v
	}
	return s
}

func (m *Machine) restore(s machineSnapshot) {
	for i, c := range m.cpus {
		c.cycles = s.cycles[i]
		c.loads, c.stores, c.l1Misses, c.l2Misses, c.tlbMisses =
			s.counters[i][0], s.counters[i][1], s.counters[i][2], s.counters[i][3], s.counters[i][4]
		c.l1, c.l2, c.tlb = s.l1[i], s.l2[i], s.tlb[i]
	}
	m.owners = s.owners
}

// beginPhase clears the phase-concurrent writer sets (a phase boundary is
// a barrier: lines settle into their last writer's cache).
func (m *Machine) beginPhase() {
	if len(m.phaseWriters) > 0 {
		m.phaseWriters = make(map[int64]uint64)
	}
}

// Serial runs body on CPU 0 and advances the clock by its charge.
func (m *Machine) Serial(body func(cpu *CPU)) float64 {
	m.beginPhase()
	c := m.cpus[0]
	start := c.cycles
	body(c)
	d := c.cycles - start
	m.now += d
	return d
}

// CPU returns processor i.
func (m *Machine) CPU(i int) *CPU { return m.cpus[i] }

// AddressSpace carves abstract addresses. Shared data lives at low
// addresses; each CPU's private heap starts at PrivateBase(id).
const privateRegion = int64(1) << 40

// SharedAddr returns the address of the i-th 8-byte word of the shared
// array identified by arrayBase (caller-chosen, must be line-aligned and
// non-overlapping).
func SharedAddr(arrayBase int64, i int) int64 { return arrayBase + int64(i)*8 }

// PrivateBase returns the base address of CPU id's private region.
// Private regions never collide with shared arrays or each other. Bases
// are staggered by a per-CPU line offset so that the same logical index in
// different regions does not map to the same cache set — power-of-two
// aligned heaps would turn every cross-region sweep into single-set
// thrashing, an artifact no real allocator exhibits.
func PrivateBase(id int) int64 {
	return privateRegion*int64(id+1) + int64(id)*101*64
}
