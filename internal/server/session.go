package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/trace"
)

// SessionDispatcher is the optional capability a Dispatcher implements
// when it can host streaming sessions. The daemon's engine dispatcher
// does; the gateway's routing dispatcher does not (a session's resident
// state is pinned to one engine, which cuts across fingerprint routing),
// so its connections answer OPEN_SESSION with a job-scoped ERROR.
type SessionDispatcher interface {
	// OpenSession registers l, which the session adopts (it mutates its
	// loop; the caller hands l over), and returns the live session with
	// its initial reduction. tenant is the owning connection's HELLO-bound tenant
	// name: the open and every later apply are scheduled under that
	// tenant's weighted queue.
	OpenSession(l *trace.Loop, dst []float64, tenant string) (*engine.Session, engine.Result, error)
}

func (d engineDispatcher) OpenSession(l *trace.Loop, dst []float64, tenant string) (*engine.Session, engine.Result, error) {
	return d.eng.AdoptSessionTenant(l, dst, d.eng.TenantIndex(tenant))
}

// errSessionBudget reports that admission could not make room for a new
// session even after eviction — the connection answers BUSY(BusySession).
var errSessionBudget = errors.New("server: session budget exhausted")

// sessKey names one session: sessions are connection-scoped (ids are
// client-assigned), so the owning connection's id disambiguates equal
// sids from different clients.
type sessKey struct{ conn, sid uint64 }

// serverSession is one resident streaming session plus the bookkeeping
// the store's TTL runs on.
type serverSession struct {
	key   sessKey
	es    *engine.Session
	elems int
	bytes int64

	lastUsed atomic.Int64 // unix nanos of the last touch (TTL)
}

// sessionStore is the server's session table: a clock.Cache extended with
// a TTL and a resident-byte budget, both enforced at OPEN_SESSION
// admission. One mutex guards the table — session operations are orders
// of magnitude heavier than the lookups the sharded intern table serves,
// so sharding buys nothing here.
type sessionStore struct {
	maxSessions int
	ttl         time.Duration
	maxBytes    int64

	mu            sync.Mutex
	c             *clock.Cache[sessKey, *serverSession]
	bytes         int64 // resident sessions' footprints
	reserved      int   // admissions between reserve and commit
	reservedBytes int64 // their estimates

	opens     atomic.Uint64
	evictions atomic.Uint64
}

func newSessionStore(maxSessions int, ttl time.Duration, maxBytes int64) *sessionStore {
	return &sessionStore{
		maxSessions: maxSessions,
		ttl:         ttl,
		maxBytes:    maxBytes,
		c:           clock.New[sessKey, *serverSession](maxSessions),
	}
}

// reserve admits one prospective session of estimated size est, evicting
// expired then idle sessions until both the count and byte budgets have
// room. The reservation holds the budget until commit or abort, so two
// racing opens cannot both squeeze through the same headroom. The
// estimate is checked before any state is built or torn down — a loop
// whose resident footprint could never fit, or cannot fit beside the
// reservations in flight (which eviction cannot reclaim), is rejected for
// the price of a BUSY frame and evicts nobody.
func (st *sessionStore) reserve(est int64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.reserved >= st.maxSessions || st.reservedBytes+est > st.maxBytes {
		return errSessionBudget
	}
	st.expireLocked(time.Now().UnixNano())
	// Past the check above an empty table has room, so the sweep always
	// gets there before it runs out of victims.
	for st.c.Len()+st.reserved >= st.maxSessions || st.bytes+st.reservedBytes+est > st.maxBytes {
		_, ss, ok := st.c.Evict()
		if !ok {
			return errSessionBudget
		}
		st.bytes -= ss.bytes
		st.evictedLocked(ss)
	}
	st.reserved++
	st.reservedBytes += est
	return nil
}

// release returns a reservation's budget (mu held).
func (st *sessionStore) release(est int64) {
	st.reserved--
	st.reservedBytes -= est
}

// commit installs the opened session in place of its reservation: the
// byte account trades the estimate for the session's actual footprint.
// Uniqueness is enforced here, where installation is atomic: two
// pipelined opens with the same sid both pass the read loop's lookup,
// and the second to commit must fail rather than overwrite the first.
// On failure the reservation is released and the caller owns teardown.
func (st *sessionStore) commit(ss *serverSession, est int64) bool {
	ss.lastUsed.Store(time.Now().UnixNano())
	st.mu.Lock()
	defer st.mu.Unlock()
	st.release(est)
	if _, dup := st.c.Peek(ss.key); dup {
		return false
	}
	st.bytes += ss.bytes
	// A session just opened starts with its second chance: Put, then mark.
	st.c.Put(ss.key, ss)
	st.c.Get(ss.key)
	st.opens.Add(1)
	return true
}

// abort releases a reservation whose open failed.
func (st *sessionStore) abort(est int64) {
	st.mu.Lock()
	st.release(est)
	st.mu.Unlock()
}

// get returns the live session for key, touching its TTL clock and
// CLOCK mark — or nil when the key is unknown, expired or evicted. An
// expired session is torn down here, so a delta racing the TTL boundary
// gets the typed session-gone answer, never a stale sum.
func (st *sessionStore) get(key sessKey) *serverSession {
	now := time.Now().UnixNano()
	st.mu.Lock()
	defer st.mu.Unlock()
	ss, ok := st.c.Get(key)
	if !ok {
		return nil
	}
	if now-ss.lastUsed.Load() > int64(st.ttl) {
		st.removeLocked(ss)
		st.evictedLocked(ss)
		return nil
	}
	ss.lastUsed.Store(now)
	return ss
}

// close removes and tears down the session for key, reporting whether it
// was resident.
func (st *sessionStore) close(key sessKey) (*serverSession, bool) {
	st.mu.Lock()
	ss, ok := st.c.Peek(key)
	if ok {
		st.removeLocked(ss)
	}
	st.mu.Unlock()
	if ok {
		ss.es.Close()
	}
	return ss, ok
}

// dropConn tears down every session the finished connection owned.
func (st *sessionStore) dropConn(connID uint64) {
	var dead []*serverSession
	st.mu.Lock()
	for key, ss := range st.c.All() {
		if key.conn == connID {
			st.removeLocked(ss)
			dead = append(dead, ss)
		}
	}
	st.mu.Unlock()
	for _, ss := range dead {
		ss.es.Close()
	}
}

// len reports resident sessions.
func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.c.Len()
}

// expireLocked sweeps TTL-expired sessions out (mu held). Expiry counts
// as eviction for the stats — either way the client's next delta draws
// the typed session-gone error.
func (st *sessionStore) expireLocked(now int64) {
	for _, ss := range st.c.All() {
		if now-ss.lastUsed.Load() > int64(st.ttl) {
			st.removeLocked(ss)
			st.evictedLocked(ss)
		}
	}
}

// removeLocked unlinks ss from the table and the byte account (mu held).
// Removing a session that is not the resident one under its key is a
// no-op, so the byte account is debited exactly once per session.
func (st *sessionStore) removeLocked(ss *serverSession) {
	if cur, _ := st.c.Peek(ss.key); cur != ss {
		return
	}
	st.c.Remove(ss.key)
	st.bytes -= ss.bytes
}

// evictedLocked counts and tears down a session the store itself dropped —
// TTL expiry or the CLOCK sweep (mu held). Closing under mu is fine: Close
// only takes the session's own mutex, which no store path holds.
func (st *sessionStore) evictedLocked(ss *serverSession) {
	st.evictions.Add(1)
	ss.es.Close()
}
