// Package machine assembles the simulated CC-NUMA multiprocessor of
// Section 6: per-node processors and cache hierarchies (simcache), a
// first-touch page-placement policy, directory controllers with PCLR
// combine units (simarch.Server), and a simple network model with local
// and 2-hop remote latencies. It executes a reduction loop three ways:
//
//   - RunSequential: the single-processor baseline (all data local);
//   - RunSw: the software-only replicated-array parallelization, with its
//     initialization and merge phases (Figure 6's Sw);
//   - RunPCLR: the PCLR scheme with either the hardwired (Hw) or
//     programmable (Flex) directory controller, where reduction lines are
//     filled with neutral elements locally on miss, combined at their home
//     in the background on displacement, and flushed at loop end.
//
// Replay is per-processor and deterministic; cross-processor contention at
// directories and memory banks is modeled as per-phase bandwidth demand
// (a phase cannot complete before its most-loaded resource drains).
package machine

import (
	"fmt"

	"repro/internal/pclr"
	"repro/internal/reduction"
	"repro/internal/simarch"
	"repro/internal/simcache"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Address-space layout. Bases carry line-granularity offsets to avoid
// pathological power-of-two set aliasing (see internal/vtime).
const (
	wBase   = int64(1)<<21 + 7*64
	xBase   = int64(1)<<33 + 37*64
	dBase   = int64(3)<<35 + 57*64 // non-reduction data arrays (streamed)
	privReg = int64(1) << 41
)

func privBase(node int) int64 { return privReg*int64(node+1) + int64(node)*101*64 }

// NeutralFillCycles is the latency of a reduction miss serviced by the
// local directory controller with a line of neutral elements: cheaper
// than a local memory round trip because no DRAM access is made.
const NeutralFillCycles = 60

// FlushIssueCycles is the processor-side cost of issuing one reduction
// line's flush write-back (the sends pipeline; combining happens at the
// homes).
const FlushIssueCycles = 12

// PageBytes is the page granularity of first-touch placement.
const PageBytes = 8 << 10

// Result is the outcome of one execution.
type Result struct {
	// Breakdown is the Init/Loop/Merge phase split in processor cycles
	// (for PCLR: ConfigHardware call / loop / cache flush).
	Breakdown stats.Breakdown
	// Stats holds PCLR protocol counters (zero for Sw and sequential).
	Stats pclr.Stats
	// Check is the computed reduction array when value tracking is
	// enabled, nil otherwise.
	Check []float64
}

// Machine is one simulated CC-NUMA configuration.
type Machine struct {
	cfg simarch.Config
	// TrackValues enables functional simulation of PCLR combining so the
	// result can be verified against the sequential reference. Costly on
	// large traces; enabled in tests.
	TrackValues bool

	pageOwner map[int64]int32
	cpus      []*cpu

	// Per-phase resource demand (cycles) at each node's directory/FP
	// unit and memory bank.
	dirDemand []float64
	memDemand []float64

	// Current run's controller flavor and reduction operator.
	ctrl simarch.Controller
	op   trace.Op

	combiner *pclr.Combiner
	runStats pclr.Stats
}

// New builds a machine; cfg.Validate must pass.
func New(cfg simarch.Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		cfg:       cfg,
		pageOwner: make(map[int64]int32),
		dirDemand: make([]float64, cfg.Nodes),
		memDemand: make([]float64, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		m.cpus = append(m.cpus, &cpu{
			m: m, id: i,
			hier: simcache.NewHierarchy(cfg.L1Bytes, cfg.L1Assoc, cfg.L2Bytes, cfg.L2Assoc, cfg.LineBytes),
		})
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() simarch.Config { return m.cfg }

type cpu struct {
	m    *Machine
	id   int
	hier *simcache.Hierarchy
	t    float64

	// Value images of resident reduction lines (line -> elements),
	// maintained only when TrackValues is set.
	redLines map[int64][]float64
}

func (c *cpu) compute(instr float64) { c.t += instr * c.m.cfg.CPI }

// owner returns (assigning on first touch by this cpu) the home node of
// the page containing addr.
func (m *Machine) owner(addr int64, toucher int) int {
	page := addr / PageBytes
	if o, ok := m.pageOwner[page]; ok {
		return int(o)
	}
	m.pageOwner[page] = int32(toucher)
	return toucher
}

// access charges one memory access. st selects the install state; stream
// marks sequential sweeps whose misses overlap.
func (c *cpu) access(addr int64, st simcache.State, stream bool) {
	cfg := &c.m.cfg
	line := addr >> lineBits(cfg.LineBytes)
	res := c.hier.Access(line, st)
	overlap := 1.0
	if stream && cfg.StreamOverlap > 1 {
		overlap = cfg.StreamOverlap
	}
	switch res.LevelHit {
	case 1:
		c.t += cfg.L1HitCycles
	case 2:
		c.t += cfg.L2HitCycles / overlap
	default:
		if st == simcache.Reduction {
			// Reduction miss: the local directory returns a line of
			// neutral elements; no memory or remote traffic.
			c.t += NeutralFillCycles / overlap
			c.m.runStats.NeutralFills++
			if c.m.TrackValues {
				c.fillNeutral(line)
			}
		} else {
			home := c.m.owner(addr, c.id)
			lat := cfg.LocalMemCycles
			if home != c.id {
				lat = cfg.RemoteMemCycles
			}
			c.t += lat / overlap
			c.m.memDemand[home] += cfg.MemBankOccupancy
		}
	}
	if res.WriteBack != nil {
		c.writeBack(*res.WriteBack, false)
	}
}

// writeBack routes a displaced line: reduction lines go to their home
// directory for background combining; ordinary dirty lines go to their
// home memory. flush marks end-of-loop flush write-backs.
func (c *cpu) writeBack(ev simcache.Eviction, flush bool) {
	cfg := &c.m.cfg
	addr := ev.Line << lineBits(cfg.LineBytes)
	if ev.State == simcache.Reduction {
		orig := pclr.FromShadow(addr)
		home := c.m.owner(orig, c.id)
		c.m.dirDemand[home] += cfg.CombineOccupancy(c.m.ctrl)
		c.m.runStats.Combines++
		if flush {
			c.m.runStats.LinesFlushed++
		} else {
			c.m.runStats.LinesDisplaced++
		}
		if c.m.TrackValues {
			c.combineLine(ev.Line)
		}
		return
	}
	if ev.State == simcache.Dirty {
		home := c.m.owner(addr, c.id)
		c.m.memDemand[home] += cfg.MemBankOccupancy
	}
}

func lineBits(lineBytes int) uint {
	b := uint(0)
	for 1<<b < lineBytes {
		b++
	}
	return b
}

// ----- value tracking (functional PCLR) -----

func (c *cpu) fillNeutral(line int64) {
	if c.redLines == nil {
		c.redLines = make(map[int64][]float64)
	}
	n := c.m.cfg.LineElems()
	vals := make([]float64, n)
	neutral := c.m.op.Neutral()
	for i := range vals {
		vals[i] = neutral
	}
	c.redLines[line] = vals
}

func (c *cpu) applyReduction(line int64, elemInLine int, v float64) {
	if vals, ok := c.redLines[line]; ok {
		vals[elemInLine] = c.m.op.Apply(vals[elemInLine], v)
	}
}

func (c *cpu) combineLine(line int64) {
	vals, ok := c.redLines[line]
	if !ok {
		return
	}
	delete(c.redLines, line)
	origAddr := pclr.FromShadow(line << lineBits(c.m.cfg.LineBytes))
	firstElem := int((origAddr - wBase) / 8)
	c.m.combiner.CombineLine(firstElem, vals)
}

// streamData charges iteration i's non-reduction data references: a
// sequential stream through the loop's other arrays (coordinates, matrix
// entries, flux arrays). The stream occupies cache capacity and is what
// displaces reduction lines during long loops.
func (c *cpu) streamData(l *trace.Loop, iter int) {
	n := int(l.DataRefsPerIter)
	if n <= 0 {
		return
	}
	base := dBase + int64(iter)*int64(n)*8
	for k := 0; k < n; k++ {
		st := simcache.Clean
		if k%4 == 3 {
			st = simcache.Dirty // roughly a quarter of data refs are stores
		}
		c.access(base+int64(k)*8, st, true)
	}
}

// ----- executions -----

func (m *Machine) resetRun(l *trace.Loop, ctrl simarch.Controller) {
	m.ctrl = ctrl
	m.op = l.Op
	m.runStats = pclr.Stats{}
	for i := range m.dirDemand {
		m.dirDemand[i] = 0
		m.memDemand[i] = 0
	}
	if m.TrackValues {
		m.combiner = pclr.NewCombiner(l.Op, l.NumElems)
	}
	// First-touch page placement (the policy the paper found best for
	// both baseline and PCLR). In the real applications the reduction
	// array is first touched by earlier block-distributed loops, so its
	// pages land block-wise across the nodes; replaying only the
	// reduction loop, we install that placement explicitly.
	procs := m.cfg.Nodes
	for p := 0; p < procs; p++ {
		lo, hi := reduction.BlockBounds(l.NumElems, procs, p)
		for addr := wBase + int64(lo)*8; addr < wBase+int64(hi)*8; addr += PageBytes {
			page := addr / PageBytes
			if _, ok := m.pageOwner[page]; !ok {
				m.pageOwner[page] = int32(p)
			}
		}
	}
}

// phase runs body per cpu sequentially and returns the wall time: the
// slowest processor or the most-loaded resource whose demand accrued
// during the phase, whichever is longer.
func (m *Machine) phase(body func(c *cpu)) float64 {
	dir0 := append([]float64(nil), m.dirDemand...)
	mem0 := append([]float64(nil), m.memDemand...)
	var maxDelta float64
	for _, c := range m.cpus {
		start := c.t
		body(c)
		if d := c.t - start; d > maxDelta {
			maxDelta = d
		}
	}
	wall := maxDelta
	for i := range m.dirDemand {
		if d := m.dirDemand[i] - dir0[i]; d > wall {
			wall = d
		}
		if d := m.memDemand[i] - mem0[i]; d > wall {
			wall = d
		}
	}
	return wall
}

// refOffsets gives each block's starting position in the flat ref stream.
func refOffsets(l *trace.Loop, procs int) []int {
	offs := make([]int, procs)
	pos, next := 0, 0
	for p := 0; p < procs; p++ {
		lo, _ := reduction.BlockBounds(l.NumIters(), procs, p)
		for next < lo {
			pos += len(l.Iter(next))
			next++
		}
		offs[p] = pos
	}
	return offs
}

// RunSequential executes the loop on a fresh single-node machine with the
// same per-node parameters and returns its result. All data are placed in
// the single node's memory, matching the paper's sequential baseline.
func RunSequential(cfg simarch.Config, l *trace.Loop) Result {
	seqCfg := cfg
	seqCfg.Nodes = 1
	m := New(seqCfg)
	m.resetRun(l, simarch.Hardwired)
	loop := m.phase(func(c *cpu) {
		pos := 0
		for i := 0; i < l.NumIters(); i++ {
			refs := l.Iter(i)
			c.compute(l.WorkPerIter)
			c.streamData(l, i)
			for k := range refs {
				c.access(xBase+int64(pos+k)*4, simcache.Clean, true)
			}
			pos += len(refs)
			for _, idx := range refs {
				c.access(wBase+int64(idx)*8, simcache.Dirty, false)
				c.compute(1)
			}
		}
	})
	return Result{Breakdown: stats.Breakdown{Loop: loop}}
}

// RunSw executes the software-only replicated-array parallelization.
func (m *Machine) RunSw(l *trace.Loop) Result {
	m.resetRun(l, simarch.Hardwired)
	procs := m.cfg.Nodes
	refStart := refOffsets(l, procs)
	var b stats.Breakdown

	// Init: every processor sweeps its full private copy (local pages).
	b.Init = m.phase(func(c *cpu) {
		base := privBase(c.id)
		for e := 0; e < l.NumElems; e++ {
			c.access(base+int64(e)*8, simcache.Dirty, true)
		}
	})

	// Loop: block-scheduled private accumulation.
	b.Loop = m.phase(func(c *cpu) {
		base := privBase(c.id)
		lo, hi := reduction.BlockBounds(l.NumIters(), procs, c.id)
		pos := refStart[c.id]
		for i := lo; i < hi; i++ {
			refs := l.Iter(i)
			c.compute(l.WorkPerIter)
			c.streamData(l, i)
			for k := range refs {
				c.access(xBase+int64(pos+k)*4, simcache.Clean, true)
			}
			pos += len(refs)
			for _, idx := range refs {
				c.access(base+int64(idx)*8, simcache.Dirty, false)
				c.compute(1)
			}
		}
	})

	// Merge: each processor combines its element range across all
	// private copies (P-1 of them remote) and writes the shared array.
	b.Merge = m.phase(func(c *cpu) {
		lo, hi := reduction.BlockBounds(l.NumElems, procs, c.id)
		for e := lo; e < hi; e++ {
			for q := 0; q < procs; q++ {
				// The accumulator chain serializes these mostly-remote
				// reads; they do not stream the way a memset does.
				c.access(privBase(q)+int64(e)*8, simcache.Clean, false)
				c.compute(1)
			}
			c.access(wBase+int64(e)*8, simcache.Dirty, true)
		}
	})
	return Result{Breakdown: b}
}

// RunPCLR executes the loop under PCLR with the given controller flavor.
func (m *Machine) RunPCLR(l *trace.Loop, ctrl simarch.Controller) (Result, error) {
	hc := pclr.HardwareConfig{Op: l.Op, Controller: ctrl, ElemBytes: 8}
	if err := hc.Validate(); err != nil {
		return Result{}, err
	}
	m.resetRun(l, ctrl)
	procs := m.cfg.Nodes
	refStart := refOffsets(l, procs)
	lb := lineBits(m.cfg.LineBytes)
	elemsPerLine := int64(m.cfg.LineElems())
	var b stats.Breakdown

	// "Init": the ConfigHardware system call on every processor.
	b.Init = m.phase(func(c *cpu) {
		c.t += pclr.ConfigCallCycles
	})

	// Loop: reduction accesses go to shadow addresses in the Reduction
	// state; misses are neutral-filled locally; displacements are
	// combined at the home in the background.
	b.Loop = m.phase(func(c *cpu) {
		lo, hi := reduction.BlockBounds(l.NumIters(), procs, c.id)
		pos := refStart[c.id]
		for i := lo; i < hi; i++ {
			refs := l.Iter(i)
			c.compute(l.WorkPerIter)
			c.streamData(l, i)
			for k := range refs {
				c.access(xBase+int64(pos+k)*4, simcache.Clean, true)
			}
			pos += len(refs)
			for k, idx := range refs {
				shadow := pclr.ToShadow(wBase + int64(idx)*8)
				c.access(shadow, simcache.Reduction, false)
				c.compute(1)
				if m.TrackValues {
					line := shadow >> lb
					elemInLine := int(((wBase + int64(idx)*8) >> 3) % elemsPerLine)
					c.applyReduction(line, elemInLine, trace.Value(i, k, idx))
				}
			}
		}
	})

	// Merge: flush the reduction lines still cached; each flushed line is
	// combined at its home directory.
	b.Merge = m.phase(func(c *cpu) {
		lines := c.hier.FlushReduction()
		for _, line := range lines {
			c.t += FlushIssueCycles
			c.writeBack(simcache.Eviction{Line: line, State: simcache.Reduction}, true)
		}
		// Tail: the last write-back's round trip.
		if len(lines) > 0 {
			c.t += m.cfg.RemoteMemCycles / m.cfg.StreamOverlap
		}
	})

	res := Result{Breakdown: b, Stats: m.runStats}
	if m.TrackValues {
		res.Check = m.combiner.Memory()
	}
	return res, nil
}

var _ = fmt.Sprintf // fmt is used by future diagnostics; keep the import anchored
