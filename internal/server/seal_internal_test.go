package server

import (
	"io"
	"net"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// TestInternSealsCanonicalLoops: every loop the server's table publishes
// is sealed — on a miss, on a hit, through Lookup and after a colliding
// pattern takes over the slot — and the loop handed in is never sealed.
func TestInternSealsCanonicalLoops(t *testing.T) {
	tab := engine.NewTable(4, 24)
	ls := workloads.HotKeySet(2, 0.2)
	l, other := ls[0], ls[1]
	if l.EqualPattern(other) {
		t.Fatal("the two hot keys must be distinct patterns")
	}
	fp := l.Fingerprint()

	scratch := l.Clone()
	canon, id, hit := tab.Canonical(fp, scratch)
	if hit || canon == scratch || !canon.Sealed() || scratch.Sealed() {
		t.Fatalf("miss: hit=%v, canonical is the scratch=%v, sealed=%v, scratch sealed=%v",
			hit, canon == scratch, canon.Sealed(), scratch.Sealed())
	}
	if canon.Fingerprint() != fp {
		t.Fatalf("the sealed canonical loop's fingerprint %016x, interned under %016x", canon.Fingerprint(), fp)
	}

	again := l.Clone()
	got, gotID, hit := tab.Canonical(fp, again)
	if !hit || got != canon || gotID != id || again.Sealed() {
		t.Fatalf("hit: hit=%v, same canonical=%v, same id=%v, argument sealed=%v", hit, got == canon, gotID == id, again.Sealed())
	}
	if got := tab.Lookup(fp, id); got != canon || !got.Sealed() {
		t.Fatal("lookup did not return the sealed canonical loop")
	}

	// A colliding pattern filed under the same key takes the slot over.
	taken, takenID, hit := tab.Canonical(fp, other)
	if hit || taken == canon || !taken.Sealed() || other.Sealed() || takenID == id {
		t.Fatalf("takeover: hit=%v, kept the old loop=%v, sealed=%v, argument sealed=%v",
			hit, taken == canon, taken.Sealed(), other.Sealed())
	}
	if !taken.EqualPattern(other) || taken.Fingerprint() != other.Fingerprint() {
		t.Fatal("the takeover's canonical loop is not a copy of the colliding pattern")
	}
	if tab.Lookup(fp, id) != nil {
		t.Fatal("the displaced handle still resolves")
	}
	if got := tab.Lookup(fp, takenID); got != taken || !got.Sealed() {
		t.Fatal("lookup of the takeover's handle did not return its sealed loop")
	}
}

// sealRecorder is the daemon's engine dispatcher that records every loop
// it is handed to run or to adopt as a session.
type sealRecorder struct {
	engineDispatcher
	dispatched, opened []*trace.Loop
}

func (d *sealRecorder) Dispatch(l *trace.Loop, fp uint64, dst []float64, tl *obs.Timeline, tenant string) (Waiter, error) {
	d.dispatched = append(d.dispatched, l)
	return d.engineDispatcher.Dispatch(l, fp, dst, tl, tenant)
}

func (d *sealRecorder) OpenSession(l *trace.Loop, dst []float64, tenant string) (*engine.Session, engine.Result, error) {
	d.opened = append(d.opened, l)
	return d.engineDispatcher.OpenSession(l, dst, tenant)
}

// TestSealOnlyInternedLoops drives a full SUBMIT and an OPEN_SESSION
// through a connection's handlers: the loop dispatched is the sealed
// canonical copy, while the connection's decode scratch and the loop a
// session adopts (its deltas edit it) stay unsealed.
func TestSealOnlyInternedLoops(t *testing.T) {
	eng, err := engine.New(engine.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d := &sealRecorder{engineDispatcher: engineDispatcher{eng}}
	srv := NewWithDispatcher(d, Config{})
	l := workloads.HotKeySet(1, 0.2)[0]

	nc, peer := net.Pipe()
	defer peer.Close()
	go io.Copy(io.Discard, peer)
	c := newConn(srv, nc)
	c.w = wire.NewWriter(nc, c.closeTimelines, nil)
	defer c.w.Close()

	f, _, err := wire.DecodeFrame(wire.AppendSubmit(nil, 1, l), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.handleSubmit(f)
	c.jobWG.Wait()
	if len(d.dispatched) != 1 {
		t.Fatalf("%d loops dispatched, want 1", len(d.dispatched))
	}
	if got := d.dispatched[0]; !got.Sealed() || got == &c.scratch || !got.EqualPattern(l) {
		t.Fatalf("dispatched: sealed=%v, is the scratch=%v, equal to the submission=%v",
			got.Sealed(), got == &c.scratch, got.EqualPattern(l))
	}
	if c.scratch.Sealed() {
		t.Fatal("the connection's decode scratch was sealed")
	}

	f, _, err = wire.DecodeFrame(wire.AppendOpenSession(nil, 2, 5, l), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.handleOpenSession(f)
	if len(d.opened) != 1 {
		t.Fatalf("%d sessions opened, want 1", len(d.opened))
	}
	if d.opened[0].Sealed() {
		t.Fatal("the loop a session adopted was sealed")
	}
	if l.Sealed() {
		t.Fatal("the submitter's loop was sealed")
	}
}
