// Package simcache models the per-node two-level write-back cache
// hierarchy of the simulated CC-NUMA machine, including the PCLR
// "reduction" line state of Section 5.1.1: lines holding reduction data
// are non-coherent, are filled with neutral elements on a miss by the
// local directory, and their displacement triggers a combining write-back
// at the home directory instead of an ordinary write-back.
package simcache

import "fmt"

// State is a cache line's coherence state.
type State uint8

const (
	// Invalid: the line is not present.
	Invalid State = iota
	// Clean: present, consistent with memory.
	Clean
	// Dirty: present, modified, owned (ordinary write-back on eviction).
	Dirty
	// Reduction: the PCLR state — non-coherent private accumulation
	// storage; eviction produces a combining write-back.
	Reduction
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "Invalid"
	case Clean:
		return "Clean"
	case Dirty:
		return "Dirty"
	case Reduction:
		return "Reduction"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Eviction describes a line pushed out of the hierarchy.
type Eviction struct {
	Line  int64
	State State
}

// Level is one set-associative cache level with LRU replacement.
type Level struct {
	sets, assoc int
	tags        []int64
	states      []State
}

// NewLevel builds a level from geometry in bytes.
func NewLevel(bytes, assoc, lineBytes int) *Level {
	if bytes <= 0 || assoc <= 0 || lineBytes <= 0 {
		panic("simcache: geometry must be positive")
	}
	lines := bytes / lineBytes
	sets := lines / assoc
	if sets < 1 {
		sets = 1
	}
	l := &Level{sets: sets, assoc: assoc,
		tags:   make([]int64, sets*assoc),
		states: make([]State, sets*assoc),
	}
	for i := range l.tags {
		l.tags[i] = -1
	}
	return l
}

// Clone returns an independent copy of the level's contents and
// replacement order (vtime snapshots a phase with it). A nil level clones
// to nil.
func (l *Level) Clone() *Level {
	if l == nil {
		return nil
	}
	c := *l
	c.tags = append([]int64(nil), l.tags...)
	c.states = append([]State(nil), l.states...)
	return &c
}

// Lookup returns the line's state without changing replacement order.
func (l *Level) Lookup(line int64) State {
	base := l.setBase(line)
	for i := 0; i < l.assoc; i++ {
		if l.tags[base+i] == line {
			return l.states[base+i]
		}
	}
	return Invalid
}

// Access touches the line, moving it to MRU. If absent it is installed in
// the given state and the previous LRU entry is returned as an eviction
// (ev.State == Invalid means nothing meaningful was evicted). If present,
// the state is upgraded to install when install > current (Clean->Dirty,
// anything->Reduction is NOT implied — callers handle state transitions
// explicitly via SetState when the protocol requires them).
func (l *Level) Access(line int64, install State) (hit bool, ev Eviction) {
	base := l.setBase(line)
	for i := 0; i < l.assoc; i++ {
		if l.tags[base+i] == line {
			st := l.states[base+i]
			if install > st {
				st = install
			}
			l.promote(base, i, st)
			return true, Eviction{Line: -1, State: Invalid}
		}
	}
	ev = Eviction{Line: l.tags[base+l.assoc-1], State: l.states[base+l.assoc-1]}
	if ev.Line < 0 {
		ev.State = Invalid
	}
	// Shift and install at MRU.
	copy(l.tags[base+1:base+l.assoc], l.tags[base:base+l.assoc-1])
	copy(l.states[base+1:base+l.assoc], l.states[base:base+l.assoc-1])
	l.tags[base] = line
	l.states[base] = install
	return false, ev
}

// SetState changes the state of a present line; it is a no-op when absent.
func (l *Level) SetState(line int64, st State) {
	base := l.setBase(line)
	for i := 0; i < l.assoc; i++ {
		if l.tags[base+i] == line {
			l.states[base+i] = st
			return
		}
	}
}

// Invalidate removes the line, returning its previous state.
func (l *Level) Invalidate(line int64) State {
	base := l.setBase(line)
	for i := 0; i < l.assoc; i++ {
		if l.tags[base+i] == line {
			st := l.states[base+i]
			copy(l.tags[base+i:base+l.assoc-1], l.tags[base+i+1:base+l.assoc])
			copy(l.states[base+i:base+l.assoc-1], l.states[base+i+1:base+l.assoc])
			l.tags[base+l.assoc-1] = -1
			l.states[base+l.assoc-1] = Invalid
			return st
		}
	}
	return Invalid
}

// FlushState removes every line in state st and returns them. This is the
// PCLR end-of-loop cache flush when st == Reduction.
func (l *Level) FlushState(st State) []int64 {
	var out []int64
	for i, tag := range l.tags {
		if tag >= 0 && l.states[i] == st {
			out = append(out, tag)
			l.tags[i] = -1
			l.states[i] = Invalid
		}
	}
	return out
}

// CountState returns how many resident lines are in state st.
func (l *Level) CountState(st State) int {
	n := 0
	for i, tag := range l.tags {
		if tag >= 0 && l.states[i] == st {
			n++
		}
	}
	return n
}

func (l *Level) setBase(line int64) int {
	set := int(line % int64(l.sets))
	if set < 0 {
		set += l.sets
	}
	return set * l.assoc
}

func (l *Level) promote(base, i int, st State) {
	line := l.tags[base+i]
	copy(l.tags[base+1:base+i+1], l.tags[base:base+i])
	copy(l.states[base+1:base+i+1], l.states[base:base+i])
	l.tags[base] = line
	l.states[base] = st
}

// Hierarchy is a two-level inclusive write-back hierarchy: every resident
// L1 line is also in L2. An L1 eviction of a modified line updates the L2
// copy's state; an L2 eviction enforces inclusion (invalidating any L1
// copy) and, if the line was Dirty or Reduction, the line leaves the node
// as a write-back.
type Hierarchy struct {
	L1, L2 *Level
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(l1Bytes, l1Assoc, l2Bytes, l2Assoc, lineBytes int) *Hierarchy {
	return &Hierarchy{
		L1: NewLevel(l1Bytes, l1Assoc, lineBytes),
		L2: NewLevel(l2Bytes, l2Assoc, lineBytes),
	}
}

// AccessResult describes where an access hit and what left the node.
type AccessResult struct {
	// LevelHit is 1 or 2 for a cache hit, 0 for a miss to memory.
	LevelHit int
	// WriteBack is the Dirty or Reduction line pushed out of the node by
	// this access, or nil.
	WriteBack *Eviction
}

// Access performs a load or store of the line, installing it in the given
// state on a miss. Reduction accesses pass Reduction; ordinary stores
// pass Dirty; ordinary loads pass Clean.
func (h *Hierarchy) Access(line int64, install State) AccessResult {
	var res AccessResult
	hit1, l1ev := h.L1.Access(line, install)
	if hit1 {
		res.LevelHit = 1
		if install >= Dirty {
			h.L2.SetState(line, install)
		}
		return res
	}
	// Spill the L1 victim's modified state into its (inclusive) L2 copy.
	if l1ev.Line >= 0 && l1ev.State >= Dirty {
		h.L2.SetState(l1ev.Line, l1ev.State)
	}
	hit2, l2ev := h.L2.Access(line, install)
	if hit2 {
		res.LevelHit = 2
		return res
	}
	res.LevelHit = 0
	if l2ev.Line >= 0 {
		// Inclusion: the L1 copy (if any) must go too; the write-back
		// carries the strongest state either level held.
		st := l2ev.State
		if st1 := h.L1.Invalidate(l2ev.Line); st1 > st {
			st = st1
		}
		if st >= Dirty {
			res.WriteBack = &Eviction{Line: l2ev.Line, State: st}
		}
	}
	return res
}

// FlushReduction removes every Reduction-state line from both levels and
// returns the distinct line set (the PCLR end-of-loop flush). The count of
// returned lines is Table 2's "Lines Flushed" contribution for this node.
func (h *Hierarchy) FlushReduction() []int64 {
	l2 := h.L2.FlushState(Reduction)
	seen := make(map[int64]struct{}, len(l2))
	for _, ln := range l2 {
		seen[ln] = struct{}{}
	}
	for _, ln := range h.L1.FlushState(Reduction) {
		if _, ok := seen[ln]; !ok {
			l2 = append(l2, ln)
			seen[ln] = struct{}{}
		}
	}
	return l2
}

// ResidentReduction returns how many distinct reduction lines are held.
func (h *Hierarchy) ResidentReduction() int {
	n := h.L2.CountState(Reduction)
	// Inclusive hierarchy: L1 reduction lines are in L2 too, except the
	// rare case where an L2 eviction raced; count L2 only.
	return n
}
