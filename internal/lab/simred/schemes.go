// Package simred holds the virtual-time twins of the reduction library
// (Section 4, Figure 3): for every scheme in package reduction, a
// deterministic replay on a vtime.Machine that charges the memory traffic
// and computation the scheme performs and returns the Init/Loop/Merge
// breakdown, plus the measurement harness that ranks all schemes by
// simulated execution time so the decision algorithm's recommendation can
// be validated the way the paper's Figure 3 does ("Recommended scheme"
// column vs. the measured ordering in the "Experimental Result" column).
//
// The twins decide nothing themselves: block bounds, sel's conflict
// classification, lw's per-owner iteration lists and hash's probe
// sequences come from the shipped schemes through reduction's inspection
// surface (reduction/inspect.go), so the simulated code is the code that
// serves. This is a lab package: the serving stack must not import it
// (scripts/deps_check.sh).
package simred

import (
	"fmt"

	"repro/internal/reduction"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Scheme is the virtual-time twin of one reduction.Scheme.
type Scheme interface {
	// Name returns the paper abbreviation of the scheme simulated.
	Name() string
	// Simulate replays the scheme's work on the virtual machine and
	// returns the phase breakdown in cycles. The machine's clock advances.
	Simulate(l *trace.Loop, m *vtime.Machine) stats.Breakdown
}

// Rep, LinkedList, Selective, LocalWrite and Hash simulate the
// reduction schemes of the same names.
type (
	Rep        struct{}
	LinkedList struct{}
	Selective  struct{}
	LocalWrite struct{}
	Hash       struct{}
)

// Name returns "rep".
func (Rep) Name() string { return reduction.Rep{}.Name() }

// Name returns "ll".
func (LinkedList) Name() string { return reduction.LinkedList{}.Name() }

// Name returns "sel".
func (Selective) Name() string { return reduction.Selective{}.Name() }

// Name returns "lw".
func (LocalWrite) Name() string { return reduction.LocalWrite{}.Name() }

// Name returns "hash".
func (Hash) Name() string { return reduction.Hash{}.Name() }

// All returns every simulator, in the paper's (and reduction.All's) order.
func All() []Scheme {
	return []Scheme{Rep{}, LinkedList{}, Selective{}, LocalWrite{}, Hash{}}
}

// ByName returns the simulator of the scheme with the given abbreviation.
func ByName(name string) (Scheme, error) {
	for _, s := range All() {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("simred: no simulator for scheme %q", name)
}

// Abstract address-space layout used by the simulators. The shared reduction
// array w, the shared subscript stream x, and each processor's private
// structures occupy disjoint regions (see vtime.PrivateBase). Bases carry
// distinct line-granularity offsets so different arrays do not all alias
// cache set 0 the way raw power-of-two bases would.
const (
	sharedWBase     = int64(1)<<20 + 7*64  // shared reduction array
	sharedXBase     = int64(1)<<32 + 37*64 // shared subscript/index stream (read-only)
	sharedRemapBase = int64(3)<<30 + 53*64 // shared remap table (sel)
	privArray       = int64(0)             // offset of private replicated array
	privFlags       = int64(1)<<34 + 17*64 // offset of private init-flag / link array
	privTable       = int64(2)<<34 + 29*64 // offset of private hash table / remap
)

// loadIterRefs charges the reads of iteration i's subscripts from the
// shared index stream. refPos is the running global reference position so
// that consecutive iterations stream through the same cache lines; the
// stream is sequential, so its misses overlap.
func loadIterRefs(cpu *vtime.CPU, refPos int, n int) {
	for k := 0; k < n; k++ {
		cpu.StreamLoad(sharedXBase + int64(refPos+k)*4)
	}
}

// Simulate charges rep's traffic on the virtual machine: a full private
// sweep at Init, private accumulation during Loop, and a P-way combine
// sweep at Merge (reading every processor's copy, writing the shared
// array).
func (Rep) Simulate(l *trace.Loop, m *vtime.Machine) stats.Breakdown {
	procs := m.Procs()
	var b stats.Breakdown

	// Init: every processor sweeps its entire private array (a
	// sequential memset — misses overlap).
	b.Init = m.Parallel(func(cpu *vtime.CPU) {
		base := vtime.PrivateBase(cpu.ID()) + privArray
		for e := 0; e < l.NumElems; e++ {
			cpu.StreamStore(base + int64(e)*8)
		}
	})

	// Loop: block-scheduled iterations accumulate privately.
	refStart := refOffsets(l, procs)
	b.Loop = m.Parallel(func(cpu *vtime.CPU) {
		p := cpu.ID()
		base := vtime.PrivateBase(p) + privArray
		lo, hi := reduction.BlockBounds(l.NumIters(), procs, p)
		pos := refStart[p]
		for i := lo; i < hi; i++ {
			refs := l.Iter(i)
			cpu.Compute(l.WorkPerIter)
			loadIterRefs(cpu, pos, len(refs))
			pos += len(refs)
			for _, idx := range refs {
				addr := base + int64(idx)*8
				cpu.Load(addr)
				cpu.Compute(1) // the reduction operation itself
				cpu.Store(addr)
			}
		}
	})

	// Merge: each processor combines its element range across all copies.
	// The P per-copy streams are sequential, so their misses overlap.
	b.Merge = m.Parallel(func(cpu *vtime.CPU) {
		p := cpu.ID()
		lo, hi := reduction.BlockBounds(l.NumElems, procs, p)
		for e := lo; e < hi; e++ {
			for q := 0; q < procs; q++ {
				cpu.StreamLoad(vtime.PrivateBase(q) + privArray + int64(e)*8)
				cpu.Compute(1)
			}
			cpu.StreamStore(sharedWBase + int64(e)*8)
		}
	})
	return b
}

// refOffsets returns, for each processor's block start, the global
// reference position where that block begins in the flattened ref stream.
func refOffsets(l *trace.Loop, procs int) []int {
	offs := make([]int, procs)
	pos := 0
	next := 0
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

// Simulate charges ll's traffic: no Init phase, a flag check + possible
// lazy initialization per access during Loop, and a Merge that walks each
// processor's touched-element list with poor spatial locality.
//
// First-touch positions and touched lists are precomputed so the phase
// bodies are idempotent (the virtual machine may replay a phase to
// collect sharing information).
func (LinkedList) Simulate(l *trace.Loop, m *vtime.Machine) stats.Breakdown {
	procs := m.Procs()
	var b stats.Breakdown
	refStart := refOffsets(l, procs)

	// Precompute, per processor: the touched-element list in first-touch
	// order and a parallel-to-refs bitmap of which reference positions are
	// first touches.
	touched := make([][]int32, procs)
	firstTouch := make([][]bool, procs)
	for p := 0; p < procs; p++ {
		seen := make(map[int32]struct{})
		lo, hi := reduction.BlockBounds(l.NumIters(), procs, p)
		var ft []bool
		for i := lo; i < hi; i++ {
			for _, idx := range l.Iter(i) {
				if _, ok := seen[idx]; !ok {
					seen[idx] = struct{}{}
					touched[p] = append(touched[p], idx)
					ft = append(ft, true)
				} else {
					ft = append(ft, false)
				}
			}
		}
		firstTouch[p] = ft
	}

	b.Loop = m.Parallel(func(cpu *vtime.CPU) {
		p := cpu.ID()
		arr := vtime.PrivateBase(p) + privArray
		flags := vtime.PrivateBase(p) + privFlags
		lo, hi := reduction.BlockBounds(l.NumIters(), procs, p)
		pos := refStart[p]
		local := 0
		for i := lo; i < hi; i++ {
			refs := l.Iter(i)
			cpu.Compute(l.WorkPerIter)
			loadIterRefs(cpu, pos, len(refs))
			pos += len(refs)
			for _, idx := range refs {
				// Flag check: one load of the link entry.
				cpu.Load(flags + int64(idx)*4)
				if firstTouch[p][local] {
					// Lazy init: write value + link.
					cpu.Store(arr + int64(idx)*8)
					cpu.Store(flags + int64(idx)*4)
					cpu.Compute(2)
				}
				local++
				addr := arr + int64(idx)*8
				cpu.Load(addr)
				cpu.Compute(1)
				cpu.Store(addr)
			}
		}
	})

	// Merge: processors apply their own lists to the shared array. The
	// lists are in first-touch order (poor locality on the shared side);
	// updates to the shared array from different processors may collide,
	// which the sharing tracker charges as coherence misses.
	b.Merge = m.Parallel(func(cpu *vtime.CPU) {
		p := cpu.ID()
		arr := vtime.PrivateBase(p) + privArray
		flags := vtime.PrivateBase(p) + privFlags
		for _, e := range touched[p] {
			cpu.Load(flags + int64(e)*4) // follow the link
			cpu.Load(arr + int64(e)*8)   // private value
			cpu.Load(sharedWBase + int64(e)*8)
			cpu.Compute(1)
			cpu.Store(sharedWBase + int64(e)*8)
		}
	})
	return b
}

// Simulate charges sel's traffic: the inspector pass plus compact-array
// initialization as Init, remap-indirected accesses during Loop, and the
// conflicting-subset combine as Merge.
func (Selective) Simulate(l *trace.Loop, m *vtime.Machine) stats.Breakdown {
	procs := m.Procs()
	remap, numConflict := reduction.Selective{}.Classify(l, procs)
	refStart := refOffsets(l, procs)
	var b stats.Breakdown

	// Init, part 1 — the inspector reads every subscript once and writes
	// the toucher/remap tables. Its output depends only on the access
	// pattern, so its cost is amortized over the loop's invocations.
	b.Init = m.ParallelScaled(1/float64(l.InvocationCount()), func(cpu *vtime.CPU) {
		p := cpu.ID()
		lo, hi := reduction.BlockBounds(l.NumIters(), procs, p)
		pos := refStart[p]
		tbase := vtime.PrivateBase(p) + privTable
		for i := lo; i < hi; i++ {
			n := len(l.Iter(i))
			loadIterRefs(cpu, pos, n)
			pos += n
			for _, idx := range l.Iter(i) {
				cpu.Load(tbase + int64(idx)*4) // toucher entry
				cpu.Compute(1)
			}
		}
	})
	// Init, part 2 — per-invocation zeroing of the compact arrays (a
	// sequential sweep).
	b.Init += m.Parallel(func(cpu *vtime.CPU) {
		cbase := vtime.PrivateBase(cpu.ID()) + privArray
		for c := 0; c < numConflict; c++ {
			cpu.StreamStore(cbase + int64(c)*8)
		}
	})

	// Loop: remap load per reference; conflicting refs go to the private
	// compact array, exclusive refs to the shared array in place.
	b.Loop = m.Parallel(func(cpu *vtime.CPU) {
		p := cpu.ID()
		cbase := vtime.PrivateBase(p) + privArray
		lo, hi := reduction.BlockBounds(l.NumIters(), procs, p)
		pos := refStart[p]
		for i := lo; i < hi; i++ {
			refs := l.Iter(i)
			cpu.Compute(l.WorkPerIter)
			loadIterRefs(cpu, pos, len(refs))
			pos += len(refs)
			for _, idx := range refs {
				cpu.Load(sharedRemapBase + int64(idx)*4) // remap table (shared, read-only)
				// The indirection makes the update a three-deep dependent
				// load chain (subscript -> remap -> value): the extra
				// level cannot be overlapped and serializes the update.
				cpu.Stall(6)
				var addr int64
				if c := remap[idx]; c >= 0 {
					addr = cbase + int64(c)*8
				} else {
					addr = sharedWBase + int64(idx)*8
				}
				cpu.Load(addr)
				cpu.Compute(1)
				cpu.Store(addr)
			}
		}
	})

	// Merge: combine the conflicting subset across processors. The
	// compact arrays are swept sequentially (overlapping misses); the
	// shared-array writes scatter (full latency).
	b.Merge = m.Parallel(func(cpu *vtime.CPU) {
		p := cpu.ID()
		lo, hi := reduction.BlockBounds(numConflict, procs, p)
		conflictSeen := 0
		for e := 0; e < l.NumElems && conflictSeen < hi; e++ {
			c := remap[e]
			if c < 0 {
				continue
			}
			if int(c) >= lo && int(c) < hi {
				for q := 0; q < procs; q++ {
					cpu.StreamLoad(vtime.PrivateBase(q) + privArray + int64(c)*8)
					cpu.Compute(1)
				}
				cpu.Store(sharedWBase + int64(e)*8)
			}
			conflictSeen++
		}
	})
	return b
}

// Simulate charges lw's traffic: the inspector pass as Init (one sweep of
// the subscript stream building per-owner iteration lists), the replicated
// loop execution as Loop, and no Merge.
func (LocalWrite) Simulate(l *trace.Loop, m *vtime.Machine) stats.Breakdown {
	procs := m.Procs()
	iterLists := reduction.LocalWrite{}.IterLists(l, procs)
	refStart := refOffsets(l, procs)
	var b stats.Breakdown

	// Init: inspector. Every processor scans its block of the subscript
	// stream, computes owners, and appends to the per-owner lists. Like
	// sel's inspector, the lists depend only on the access pattern and
	// are amortized over the loop's invocations.
	b.Init = m.ParallelScaled(1/float64(l.InvocationCount()), func(cpu *vtime.CPU) {
		p := cpu.ID()
		lo, hi := reduction.BlockBounds(l.NumIters(), procs, p)
		pos := refStart[p]
		listBase := vtime.PrivateBase(p) + privTable
		written := 0
		for i := lo; i < hi; i++ {
			n := len(l.Iter(i))
			loadIterRefs(cpu, pos, n)
			pos += n
			cpu.Compute(float64(2 * n)) // owner computation per ref
			// Appending iteration ids to owner lists: charge one
			// sequential store per iteration (the common case at low
			// mobility).
			cpu.StreamStore(listBase + int64(written)*4)
			written++
		}
	})

	// Loop: each processor executes its (replicated) iteration list and
	// updates only owned elements, which live in its contiguous shared
	// block (good locality, no coherence traffic). Iteration lists are
	// ascending, so the subscript re-reads stream.
	cumRefs := make([]int, l.NumIters()+1)
	for i := 0; i < l.NumIters(); i++ {
		cumRefs[i+1] = cumRefs[i] + len(l.Iter(i))
	}
	b.Loop = m.Parallel(func(cpu *vtime.CPU) {
		p := cpu.ID()
		elemLo, elemHi := reduction.BlockBounds(l.NumElems, procs, p)
		for _, i := range iterLists[p] {
			refs := l.Iter(int(i))
			cpu.Compute(l.WorkPerIter) // full iteration work is replicated
			loadIterRefs(cpu, cumRefs[i], len(refs))
			// Every reference is ownership-tested (compare + branch),
			// owned or not — that is the price of iteration replication.
			cpu.Compute(float64(2 * len(refs)))
			for _, idx := range refs {
				if int(idx) >= elemLo && int(idx) < elemHi {
					addr := sharedWBase + int64(idx)*8
					cpu.Load(addr)
					cpu.Compute(1)
					cpu.Store(addr)
				}
			}
		}
	})

	b.Merge = 0 // owner computes: nothing to merge
	return b
}

// Simulate charges hash's traffic: table allocation/zeroing as Init,
// hashed probing per access during Loop (16-byte entries: key + value),
// and an entry walk as Merge.
func (Hash) Simulate(l *trace.Loop, m *vtime.Machine) stats.Breakdown {
	procs := m.Procs()
	refStart := refOffsets(l, procs)
	var b stats.Breakdown

	// Pre-size tables deterministically from each block's touched count.
	caps := make([]int, procs)
	for p := 0; p < procs; p++ {
		lo, hi := reduction.BlockBounds(l.NumIters(), procs, p)
		seen := make(map[int32]struct{})
		for i := lo; i < hi; i++ {
			for _, idx := range l.Iter(i) {
				seen[idx] = struct{}{}
			}
		}
		caps[p] = len(seen)
	}

	tables := make([]*reduction.HashProbe, procs)
	// Init: allocate and zero the (small) tables — a sequential sweep.
	b.Init = m.Parallel(func(cpu *vtime.CPU) {
		p := cpu.ID()
		t := reduction.NewHashProbe(caps[p] + 1)
		tables[p] = t
		base := vtime.PrivateBase(p) + privTable
		for s := range t.Keys() {
			cpu.StreamStore(base + int64(s)*16) // zero the key slot of each entry
		}
	})

	// Loop: each access hashes (cheap ALU work) and probes entries.
	b.Loop = m.Parallel(func(cpu *vtime.CPU) {
		p := cpu.ID()
		t := tables[p]
		mask := int64(len(t.Keys()) - 1)
		base := vtime.PrivateBase(p) + privTable
		lo, hi := reduction.BlockBounds(l.NumIters(), procs, p)
		pos := refStart[p]
		for i := lo; i < hi; i++ {
			refs := l.Iter(i)
			cpu.Compute(l.WorkPerIter)
			loadIterRefs(cpu, pos, len(refs))
			pos += len(refs)
			for _, idx := range refs {
				slot, probes := t.Touch(idx)
				// Hashing, masking, key compare and branch chain: the
				// paper stresses that "the setup of a hash table is
				// large" — a software hashed update costs tens of
				// instructions, not the 2–3 of an array update.
				cpu.Compute(22)
				for pr := 0; pr < probes; pr++ {
					// Probe sequence ends at the final slot; previous
					// probes touched preceding entries.
					s := (int64(slot) - int64(probes-1-pr)) & mask
					cpu.Load(base + s*16)
				}
				cpu.Store(base + int64(slot)*16 + 8)
				cpu.Compute(1)
			}
		}
	})

	// Merge: walk table entries sequentially; each occupied entry updates
	// the shared array (scattered writes, coherence charged by the
	// tracker).
	b.Merge = m.Parallel(func(cpu *vtime.CPU) {
		p := cpu.ID()
		t := tables[p]
		base := vtime.PrivateBase(p) + privTable
		for s, key := range t.Keys() {
			cpu.StreamLoad(base + int64(s)*16)
			if key >= 0 {
				cpu.Load(base + int64(s)*16 + 8)
				cpu.Load(sharedWBase + int64(key)*8)
				cpu.Compute(1)
				cpu.Store(sharedWBase + int64(key)*8)
			}
		}
	})
	return b
}
