// Package clock is the service's one eviction mechanism: a CLOCK
// (second-chance) cache. Resident keys sit on a ring; a hit marks its key;
// the hand sweeps the ring clearing marks until it meets an unmarked key,
// the victim. A key that keeps getting hit survives indefinitely, one that
// goes a full revolution unhit is evicted — an LRU approximation whose hit
// costs one map probe and one store. docs/ARCHITECTURE.md, "Residency",
// lists the instances. The package imports nothing from this module.
package clock

import (
	"iter"
	"math/bits"
	"sync"
)

// Cache is an unsynchronised CLOCK cache with a fixed entry bound; callers
// bring their own lock (Sharded is the fingerprint-keyed one).
//
// The ring is a circular doubly-linked list threaded through a slot array.
// A new key enters just behind the hand — where the sweep arrives last —
// and Remove unlinks in place, so there are no holes to skip or compact.
// The mark lives in the slot, not in V: a miss allocates nothing the
// caller did not.
type Cache[K comparable, V any] struct {
	capacity  int
	idx       map[K]int32
	slots     []slot[K, V]
	hand      int32 // slot the sweep examines next; nilSlot when empty
	free      int32 // free-slot list threaded through next; nilSlot when none
	evictions uint64
}

type slot[K comparable, V any] struct {
	key        K
	val        V
	next, prev int32
	ref        bool
}

const nilSlot = -1

// New returns an empty cache holding at most capacity (at least one)
// entries. Storage grows with residency.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: max(capacity, 1),
		idx:      make(map[K]int32),
		hand:     nilSlot,
		free:     nilSlot,
	}
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int { return len(c.idx) }

// Evictions returns how many victims the sweep has claimed (Put at
// capacity and Evict; Remove is not an eviction).
func (c *Cache[K, V]) Evictions() uint64 { return c.evictions }

// Get returns the value for k and marks it referenced.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	if i, ok := c.idx[k]; ok {
		c.slots[i].ref = true
		return c.slots[i].val, true
	}
	return v, false
}

// Peek returns the value for k without marking it.
func (c *Cache[K, V]) Peek(k K) (v V, ok bool) {
	if i, ok := c.idx[k]; ok {
		return c.slots[i].val, true
	}
	return v, false
}

// Put installs v under k. A resident k keeps its ring position and mark
// and only has its value replaced. A new k enters unmarked (follow Put
// with Get to start it with a second chance), just behind the hand; at
// capacity the sweep first claims one victim, which is returned.
func (c *Cache[K, V]) Put(k K, v V) (victimKey K, victim V, evicted bool) {
	if i, ok := c.idx[k]; ok {
		c.slots[i].val = v
		return victimKey, victim, false
	}
	if len(c.idx) >= c.capacity {
		victimKey, victim, evicted = c.Evict()
	}
	i := c.free
	if i != nilSlot {
		c.free = c.slots[i].next
	} else {
		i = int32(len(c.slots))
		c.slots = append(c.slots, slot[K, V]{})
	}
	if c.hand == nilSlot {
		c.hand, c.slots[i].prev = i, i // alone on the ring: its own neighbour
	}
	behind := c.slots[c.hand].prev
	c.slots[i] = slot[K, V]{key: k, val: v, next: c.hand, prev: behind}
	c.slots[behind].next = i
	c.slots[c.hand].prev = i
	c.idx[k] = i
	return victimKey, victim, evicted
}

// Remove drops k, reporting whether it was resident. If the hand was on
// k it moves to k's successor.
func (c *Cache[K, V]) Remove(k K) (v V, ok bool) {
	i, ok := c.idx[k]
	if !ok {
		return v, false
	}
	v = c.slots[i].val
	c.unlink(i)
	return v, true
}

// Evict runs one sweep: the hand advances, clearing marks, to the first
// unmarked entry, removes it and stops on its successor; false means the
// cache was empty. Put calls it at capacity; callers whose budget is not
// an entry count (bytes, say) call it until they fit.
func (c *Cache[K, V]) Evict() (k K, v V, ok bool) {
	if c.hand == nilSlot {
		return k, v, false
	}
	s := &c.slots[c.hand]
	for s.ref { // at most one revolution: every mark passed is cleared
		s.ref = false
		c.hand = s.next
		s = &c.slots[c.hand]
	}
	k, v = s.key, s.val
	c.unlink(c.hand)
	c.evictions++
	return k, v, true
}

// unlink moves slot i from the ring and the index to the free list.
func (c *Cache[K, V]) unlink(i int32) {
	s := &c.slots[i]
	delete(c.idx, s.key)
	if s.next == i {
		c.hand = nilSlot
	} else {
		c.slots[s.prev].next = s.next
		c.slots[s.next].prev = s.prev
		if c.hand == i {
			c.hand = s.next
		}
	}
	*s = slot[K, V]{next: c.free} // drops the key and value references
	c.free = i
}

// All iterates over the resident entries, unordered and without marking.
// It ranges over the index map, so the loop body may Remove any entry (one
// not yet reached is then not produced) and may Put (the new entry may or
// may not be).
func (c *Cache[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for k, i := range c.idx {
			if !yield(k, c.slots[i].val) {
				return
			}
		}
	}
}

// Sharded is a CLOCK cache keyed by a 64-bit fingerprint, split by the
// fingerprint's low bits into a power-of-two number of independently
// locked shards so lookups of distinct patterns do not share a lock.
type Sharded[V any] struct {
	shards []Shard[V]
	mask   uint64
}

// Shard is one lock domain of a Sharded cache: hold its mutex around any
// sequence of Cache calls that must be atomic.
type Shard[V any] struct {
	sync.Mutex
	Cache[uint64, V]
}

// NewSharded builds shards (rounded up to a power of two) splitting
// capacity between them, rounding up, at least one entry each.
func NewSharded[V any](shards, capacity int) *Sharded[V] {
	n := 1 << bits.Len(uint(max(shards, 1)-1))
	s := &Sharded[V]{shards: make([]Shard[V], n), mask: uint64(n - 1)}
	for i := range s.shards {
		s.shards[i].Cache = *New[uint64, V]((capacity + n - 1) / n)
	}
	return s
}

// Shard returns the (unlocked) shard that owns fp.
func (s *Sharded[V]) Shard(fp uint64) *Shard[V] { return &s.shards[fp&s.mask] }

// Len returns the resident entry count over all shards.
func (s *Sharded[V]) Len() (n int) {
	s.each(func(c *Cache[uint64, V]) { n += c.Len() })
	return n
}

// Evictions returns the victim count over all shards.
func (s *Sharded[V]) Evictions() (n uint64) {
	s.each(func(c *Cache[uint64, V]) { n += c.Evictions() })
	return n
}

// each calls f on every shard's cache in turn, under that shard's lock.
func (s *Sharded[V]) each(f func(*Cache[uint64, V])) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.Lock()
		f(&sh.Cache)
		sh.Unlock()
	}
}
