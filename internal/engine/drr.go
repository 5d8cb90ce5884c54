package engine

import "sync"

// drrQueue is the engine's submission queue: per-tenant FIFOs drained by
// weighted deficit round robin. It replaces the single buffered channel
// the pre-tenant engine used, keeping its contract — bounded depth with
// blocking enqueue (backpressure), FIFO order within a tenant, close
// drains — and adding the isolation the channel could not express: a
// tenant flooding its own FIFO cannot displace another tenant's jobs,
// and under saturation each backlogged tenant receives weight/sum(weights)
// of the pops.
//
// The DRR variant is unit-cost (every job costs one deficit credit,
// matching the scheduler's unit of work — one execution): when the round
// pointer reaches a backlogged tenant with no credit, the tenant's
// weight is added; each pop spends one credit; an emptied tenant forfeits
// its remaining credit (no banking), which is what makes the scheduler
// work-conserving and starvation-free — a backlogged weight-1 tenant is
// served at least once per round of sum(weights) pops. The scan is
// deterministic (tenant order, no randomization), which the oracle-backed
// property suite relies on.
type drrQueue struct {
	mu    sync.Mutex
	avail sync.Cond // signaled when a job arrives or the queue closes
	space sync.Cond // broadcast when a pop frees a slot or the queue closes

	qs     []tenantFIFO
	depth  int // per-tenant capacity, in jobs
	size   int // total queued jobs across tenants
	cur    int // DRR round pointer
	closed bool
}

// tenantFIFO is one tenant's queue: a head-indexed slice (amortized O(1)
// pop without a ring) plus the tenant's DRR deficit counter.
type tenantFIFO struct {
	weight  int
	deficit int
	items   []*job
	head    int
}

func (f *tenantFIFO) len() int { return len(f.items) - f.head }

func (f *tenantFIFO) popFront() *job {
	j := f.items[f.head]
	f.items[f.head] = nil // release the job to GC while queued slots idle
	f.head++
	if f.head == len(f.items) {
		f.items = f.items[:0]
		f.head = 0
	}
	return j
}

// newDRRQueue builds a queue with one FIFO per weight, each capped at
// depth jobs.
func newDRRQueue(weights []int, depth int) *drrQueue {
	q := &drrQueue{qs: make([]tenantFIFO, len(weights)), depth: depth}
	for i, w := range weights {
		q.qs[i].weight = w
	}
	q.avail.L = &q.mu
	q.space.L = &q.mu
	return q
}

// push enqueues j on its tenant's FIFO, blocking while the FIFO is at
// depth (backpressure, exactly like the channel send it replaces). It
// reports false when the queue closed — unreachable from the engine,
// whose closeMu excludes Close while an enqueue is in flight, but kept
// so the queue is safe standalone (the property tests drive it bare).
func (q *drrQueue) push(tenant int, j *job) bool {
	q.mu.Lock()
	for q.qs[tenant].len() >= q.depth && !q.closed {
		q.space.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.qs[tenant].items = append(q.qs[tenant].items, j)
	q.size++
	q.avail.Signal()
	q.mu.Unlock()
	return true
}

// pop dequeues the next job under the DRR policy, blocking while the
// queue is empty and open. It returns nil once the queue is closed and
// drained — the worker-loop termination signal, mirroring a closed
// channel's zero value.
func (q *drrQueue) pop() *job {
	q.mu.Lock()
	for q.size == 0 && !q.closed {
		q.avail.Wait()
	}
	if q.size == 0 {
		q.mu.Unlock()
		return nil
	}
	j := q.popLocked()
	// Broadcast, not signal: waiting pushers may belong to a different
	// tenant than the slot just freed, and a signaled pusher whose own
	// FIFO is still full would swallow the wakeup.
	q.space.Broadcast()
	q.mu.Unlock()
	return j
}

// popLocked runs one DRR step (mu held, size > 0): advance the round
// pointer past idle tenants (resetting their deficit — no banking),
// replenish the serving tenant's deficit from its weight when spent, and
// serve one job for one credit.
func (q *drrQueue) popLocked() *job {
	for {
		f := &q.qs[q.cur]
		if f.len() == 0 {
			f.deficit = 0
			q.cur = (q.cur + 1) % len(q.qs)
			continue
		}
		if f.deficit == 0 {
			f.deficit = f.weight
		}
		j := f.popFront()
		f.deficit--
		q.size--
		if f.len() == 0 {
			// Forfeit leftover credit: an idle tenant must not bank
			// service it did not use (work conservation).
			f.deficit = 0
			q.cur = (q.cur + 1) % len(q.qs)
		} else if f.deficit == 0 {
			q.cur = (q.cur + 1) % len(q.qs)
		}
		return j
	}
}

// close marks the queue closed and wakes every waiter. Queued jobs
// remain poppable — close drains, it does not discard.
func (q *drrQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.avail.Broadcast()
	q.space.Broadcast()
	q.mu.Unlock()
}

// queued reports the total jobs currently queued (tests only).
func (q *drrQueue) queued() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}
