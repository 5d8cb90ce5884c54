package clock

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// model is the reference CLOCK the cache is tested against: the ring is a
// slice whose element 0 is under the hand, so "advance the hand" is rotate
// left, "just behind the hand" is append, and removal is slices.Delete.
type model struct {
	capacity  int
	ring      []int
	val       map[int]int
	ref       map[int]bool
	evictions uint64
}

func newModel(capacity int) *model {
	return &model{capacity: capacity, val: map[int]int{}, ref: map[int]bool{}}
}

func (m *model) get(k int) (int, bool) {
	v, ok := m.val[k]
	if ok {
		m.ref[k] = true
	}
	return v, ok
}

func (m *model) put(k, v int) (vk, vv int, evicted bool) {
	if _, ok := m.val[k]; !ok {
		if len(m.ring) >= m.capacity {
			vk, vv, evicted = m.evict()
		}
		m.ring = append(m.ring, k)
	}
	m.val[k] = v
	return vk, vv, evicted
}

func (m *model) remove(k int) (int, bool) {
	v, ok := m.val[k]
	if ok {
		i := slices.Index(m.ring, k)
		m.ring = slices.Delete(m.ring, i, i+1)
		delete(m.val, k)
		delete(m.ref, k)
	}
	return v, ok
}

func (m *model) evict() (k, v int, ok bool) {
	if len(m.ring) == 0 {
		return 0, 0, false
	}
	for m.ref[m.ring[0]] {
		m.ref[m.ring[0]] = false
		m.ring = append(m.ring[1:], m.ring[0])
	}
	k = m.ring[0]
	v, _ = m.remove(k)
	m.evictions++
	return k, v, true
}

// ringFromHand walks the cache's ring forward from the hand, checking the
// back links on the way.
func ringFromHand(t *testing.T, c *Cache[int, int]) []int {
	t.Helper()
	var keys []int
	if c.hand == nilSlot {
		return keys
	}
	for i := c.hand; ; {
		s := c.slots[i]
		if c.slots[s.next].prev != i || c.idx[s.key] != i {
			t.Fatalf("slot %d (key %d) is mislinked: %+v", i, s.key, s)
		}
		keys = append(keys, s.key)
		if i = s.next; i == c.hand || len(keys) > len(c.slots) {
			return keys
		}
	}
}

// The op encoding shared by the seeded test, the fuzz target and its
// corpus: data[0] picks the capacity, then (op, arg) byte pairs.
var capacities = []int{1, 2, 3, 16}

const universe = 24 // keys, so that every capacity sees misses

// runOps drives a cache and the model with the same ops and fails on the
// first divergence in an answer, a victim, or the ring itself.
func runOps(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	capacity := capacities[int(data[0])%len(capacities)]
	c, m := New[int, int](capacity), newModel(capacity)
	for n, ops := 0, data[1:]; len(ops) >= 2; n, ops = n+1, ops[2:] {
		op, k := ops[0]%10, int(ops[1])%universe
		// A victim may carry a mark only when every resident key did.
		unmarked := slices.ContainsFunc(m.ring, func(k int) bool { return !m.ref[k] })
		checkVictim := func(k int, evicted bool) {
			if evicted && m.ref[k] && unmarked {
				t.Fatalf("op %d: victim %d was hit since the hand last passed it while an un-hit key was resident", n, k)
			}
		}
		switch op {
		case 0, 1, 2:
			gv, gok := c.Get(k)
			wv, wok := m.get(k)
			if gv != wv || gok != wok {
				t.Fatalf("op %d: Get(%d) = %d,%t, model %d,%t", n, k, gv, gok, wv, wok)
			}
		case 3:
			gv, gok := c.Peek(k)
			if wv, wok := m.val[k]; gv != wv || gok != wok {
				t.Fatalf("op %d: Peek(%d) = %d,%t, model %d,%t", n, k, gv, gok, wv, wok)
			}
		case 4, 5, 6:
			gk, gv, gok := c.Put(k, n)
			checkVictim(gk, gok)
			wk, wv, wok := m.put(k, n)
			if gk != wk || gv != wv || gok != wok {
				t.Fatalf("op %d: Put(%d) evicted %d,%d,%t, model %d,%d,%t", n, k, gk, gv, gok, wk, wv, wok)
			}
		case 7:
			gv, gok := c.Remove(k)
			wv, wok := m.remove(k)
			if gv != wv || gok != wok {
				t.Fatalf("op %d: Remove(%d) = %d,%t, model %d,%t", n, k, gv, gok, wv, wok)
			}
		case 8:
			gk, gv, gok := c.Evict()
			checkVictim(gk, gok)
			wk, wv, wok := m.evict()
			if gk != wk || gv != wv || gok != wok {
				t.Fatalf("op %d: Evict() = %d,%d,%t, model %d,%d,%t", n, gk, gv, gok, wk, wv, wok)
			}
		case 9:
			// Iterate, removing the current entry and its ring neighbours
			// whenever the key falls in k's residue class: every entry is
			// produced at most once, only while resident, and one that
			// nobody removed is never skipped.
			seen := map[int]bool{}
			for key, val := range c.All() {
				if wv, ok := m.val[key]; !ok || wv != val || seen[key] {
					t.Fatalf("op %d: All produced %d=%d (resident %t, seen %t)", n, key, val, ok, seen[key])
				}
				seen[key] = true
				if key%4 == k%4 {
					i := slices.Index(m.ring, key)
					for _, victim := range []int{m.ring[(i+1)%len(m.ring)], m.ring[(i+len(m.ring)-1)%len(m.ring)], key} {
						c.Remove(victim)
						m.remove(victim)
					}
				}
			}
			for _, key := range m.ring {
				if !seen[key] {
					t.Fatalf("op %d: All skipped %d, which was never removed", n, key)
				}
			}
		}
		if got := ringFromHand(t, c); !slices.Equal(got, m.ring) {
			t.Fatalf("op %d: ring from the hand %v, model %v", n, got, m.ring)
		}
		if c.Len() != len(m.ring) || c.Len() > capacity || len(c.slots) > capacity || c.Evictions() != m.evictions {
			t.Fatalf("op %d: len %d (model %d, cap %d), %d slots, evictions %d (model %d)",
				n, c.Len(), len(m.ring), capacity, len(c.slots), c.Evictions(), m.evictions)
		}
		for _, k := range m.ring {
			if c.slots[c.idx[k]].ref != m.ref[k] {
				t.Fatalf("op %d: key %d marked %t, model %t", n, k, !m.ref[k], m.ref[k])
			}
		}
	}
}

// TestCacheAgainstModel runs 12 000 seeded random op sequences, a quarter
// at each capacity.
func TestCacheAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 1+2*96)
	for seq := 0; seq < 12000; seq++ {
		rng.Read(data)
		data[0] = byte(seq)
		runOps(t, data[:1+2*(1+rng.Intn(96))])
	}
}

// FuzzClockCache explores the same op encoding from the checked-in corpus
// (testdata/fuzz/FuzzClockCache).
func FuzzClockCache(f *testing.F) {
	f.Fuzz(runOps)
}

// TestShardedRoutesAndCounts checks the sharded wrapper: keys land on the
// shard their low bits name, the capacity is split rounding up, and Len and
// Evictions sum over shards under concurrent use (run under -race).
func TestShardedRoutesAndCounts(t *testing.T) {
	s := NewSharded[int](3, 10) // 4 shards of 3
	if len(s.shards) != 4 || s.shards[0].capacity != 3 {
		t.Fatalf("%d shards of %d, want 4 of 3", len(s.shards), s.shards[0].capacity)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fp := uint64(0); fp < 64; fp++ {
				sh := s.Shard(fp)
				sh.Lock()
				if _, ok := sh.Get(fp); !ok {
					sh.Put(fp, int(fp))
				}
				sh.Unlock()
			}
		}()
	}
	wg.Wait()
	if s.Len() != 12 {
		t.Fatalf("Len %d, want 12 (4 full shards)", s.Len())
	}
	if s.Evictions() < 64-12 {
		t.Fatalf("Evictions %d, want at least %d", s.Evictions(), 64-12)
	}
	for i := range s.shards {
		for fp := range s.shards[i].All() {
			if fp&3 != uint64(i) {
				t.Fatalf("fingerprint %d resident in shard %d", fp, i)
			}
		}
	}
}
