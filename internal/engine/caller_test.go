package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/reduction"
)

// The Submit family answers a verified resident hit on the caller
// (SubmitAsyncIntoTenant → ServeResident). These tests pin that path;
// run them under -race.

// TestCallerHitNeedsNoWorker: with the only worker parked by Hold and the
// one queue slot taken, a resident hit still completes — the Handle
// SubmitAsync returns is already done, and the answer is RunSequential's.
func TestCallerHitNeedsNoWorker(t *testing.T) {
	l := simpLoop("caller-noworker", 512, 256, 16, 21)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 1, QueueDepth: 1})
	defer e.Close()
	seedResident(t, e, l, want)
	release, err := e.Hold()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	cold, err := e.SubmitAsync(simpLoop("caller-cold", 512, 256, 16, 22))
	if err != nil {
		t.Fatal(err)
	}

	// A hit that queued would block here, behind the full queue, until
	// release; the submission runs off the test goroutine so that shows
	// as a failure rather than a hang.
	type submitted struct {
		h   *Handle
		err error
	}
	got := make(chan submitted, 1)
	go func() {
		h, err := e.SubmitAsync(l)
		got <- submitted{h, err}
	}()
	var h *Handle
	select {
	case s := <-got:
		if s.err != nil {
			t.Fatal(s.err)
		}
		h = s.h
	case <-time.After(10 * time.Second):
		t.Fatal("a resident hit blocked behind the parked worker and the full queue")
	}
	if !h.received {
		t.Fatal("a resident hit returned a pending Handle")
	}
	res := h.Wait()
	if res.Why != residentWhy || res.QueueWait != 0 {
		t.Fatalf("got %s (%s), queue wait %v; want an unqueued resident serve", res.Scheme, res.Why, res.QueueWait)
	}
	if d := bitDiffs(res.Values, want); d > 0 {
		t.Fatalf("resident hit differs from RunSequential in %d of %d elements", d, len(want))
	}
	release()
	cold.Wait()
}

// TestCallerValuesAliasDst: a caller's dst with room is the answer's
// storage; the resident's vector never is — scribbling on an answer and
// resubmitting returns the same bits.
func TestCallerValuesAliasDst(t *testing.T) {
	l := simpLoop("caller-alias", 512, 256, 16, 23)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedResident(t, e, l, want)
	entry, _ := e.lookup(l, l.Fingerprint())
	entry.mu.Lock()
	r := entry.res
	entry.mu.Unlock()
	if !r.answers(l) {
		t.Fatal("resident not armed")
	}
	total := r.values

	dst := make([]float64, l.NumElems+5)
	res, err := e.SubmitInto(l, dst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Why != residentWhy || len(res.Values) != l.NumElems || &res.Values[0] != &dst[0] {
		t.Fatalf("%s: Values (len %d) do not alias the caller's dst", res.Why, len(res.Values))
	}
	for _, dst := range [][]float64{nil, make([]float64, l.NumElems-1)} {
		res, err := e.SubmitInto(l, dst)
		if err != nil {
			t.Fatal(err)
		}
		if res.Why != residentWhy || len(res.Values) != l.NumElems || &res.Values[0] == &total[0] {
			t.Fatalf("cap %d: %s, len %d; want a fresh copy of the resident's vector", cap(dst), res.Why, len(res.Values))
		}
		for i := range res.Values {
			res.Values[i] = -1
		}
	}
	res, err = e.Submit(l)
	if err != nil {
		t.Fatal(err)
	}
	if d := bitDiffs(res.Values, want); res.Why != residentWhy || d > 0 {
		t.Fatalf("after scribbling on earlier answers: %s, %d of %d elements differ", res.Why, d, len(want))
	}
}

// TestCallerClosedResident: Close turns a resident loop away like any
// other.
func TestCallerClosedResident(t *testing.T) {
	l := simpLoop("caller-closed", 512, 256, 16, 24)
	e := mustNew(t, Config{Workers: 1})
	seedResident(t, e, l, l.RunSequential())
	e.Close()
	if _, err := e.Submit(l); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if _, err := e.SubmitAsync(l); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitAsync after Close: %v, want ErrClosed", err)
	}
}

// TestCallerMutatedFallsThrough: a same-fingerprint loop whose content
// moved fails verification on the caller and is run by a worker (one
// queue_wait observation), with RunSequential's bits and no resident
// serve counted.
func TestCallerMutatedFallsThrough(t *testing.T) {
	l := simpLoop("caller-mutated", 512, 256, 16, 25)
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedResident(t, e, l, l.RunSequential())
	m := mutateKeepingFingerprint(t, l, reduction.DefaultSegIters(l.NumIters(), e.cfg.Platform.Procs), 5, func(s int) bool { return s != 1 })

	before := e.Stats()
	res, err := e.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Why == residentWhy {
		t.Fatal("a mutated loop was answered from the resident")
	}
	if d := bitDiffs(res.Values, m.RunSequential()); d > 0 {
		t.Fatalf("mutated loop differs from RunSequential in %d of %d elements", d, len(res.Values))
	}
	after := e.Stats()
	if d := after.Sub(before); d.Jobs != 1 || d.Schemes[residentScheme] != 0 {
		t.Fatalf("a fall-through counted %d jobs, %d resident serves; want 1 and 0", d.Jobs, d.Schemes[residentScheme])
	}
	if got := stageCount(after, "queue_wait") - stageCount(before, "queue_wait"); got != 1 {
		t.Fatalf("a fall-through observed queue_wait %d times, want 1 (a worker ran it)", got)
	}
}

// TestCallerStatsCountOnce: a resident hit through the Submit family is
// one job, one batch and one cache hit, on its tenant's row, and no
// worker runs it (queue_wait does not move).
func TestCallerStatsCountOnce(t *testing.T) {
	l := simpLoop("caller-stats", 512, 256, 16, 26)
	e := mustNew(t, Config{Workers: 2, Tenants: []TenantConfig{{Name: "t1"}}})
	defer e.Close()
	seedResident(t, e, l, l.RunSequential())

	before := e.Stats()
	h, err := e.SubmitAsyncIntoTenant(l, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Why != residentWhy {
		t.Fatalf("not a resident hit: %s", res.Why)
	}
	after := e.Stats()
	d := after.Sub(before)
	if d.Jobs != 1 || d.Batches != 1 || d.CacheHits != 1 || d.Schemes["simplify"] != 1 || d.Tenants[1].Jobs != 1 || d.Tenants[0].Jobs != 0 {
		t.Fatalf("one hit moved jobs/batches/hits/simplify/t1/default by %d/%d/%d/%d/%d/%d, want 1/1/1/1/1/0",
			d.Jobs, d.Batches, d.CacheHits, d.Schemes["simplify"], d.Tenants[1].Jobs, d.Tenants[0].Jobs)
	}
	if stageCount(after, "queue_wait") != stageCount(before, "queue_wait") {
		t.Fatal("a caller hit observed queue_wait: a worker ran it")
	}
}

// TestCallerRacesSchemeSwitch: eight submitters hammer one hot loop
// through the Submit family while another goroutine keeps switching the
// entry's scheme, as a recalibration does, and runs the loop direct
// under each new one. Caller serves of the resident, which a switch
// leaves in place, interleave with direct runs of alternating schemes;
// every answer must be RunSequential's bits, and every submitter's a
// caller serve.
func TestCallerRacesSchemeSwitch(t *testing.T) {
	l := simpLoop("caller-race", 512, 256, 16, 27)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 2, Platform: core.DefaultPlatform(4)})
	defer e.Close()
	seedResident(t, e, l, want)
	entry, _ := e.lookup(l, l.Fingerprint())

	const submitters, rounds = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var bumper sync.WaitGroup
	bumper.Add(1)
	go func() {
		defer bumper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			entry.mu.Lock()
			next := "sel"
			if entry.rec.Scheme == next {
				next = "hash"
			}
			entry.install(entry.profile, adapt.Recommendation{Scheme: next, Why: "forced switch"})
			entry.newDecision()
			entry.mu.Unlock()
			for i := 0; i < 5; i++ {
				res, err := submitDirect(e, l)
				if err != nil {
					t.Error(err)
					return
				}
				if d := bitDiffs(res.Values, want); d > 0 {
					t.Errorf("direct %s run: %d of %d elements differ from RunSequential", res.Scheme, d, len(want))
					return
				}
			}
		}
	}()
	resident := make([]int, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, l.NumElems)
			for i := 0; i < rounds; i++ {
				h, err := e.SubmitAsyncInto(l, dst)
				if err != nil {
					t.Error(err)
					return
				}
				res := h.Wait()
				if d := bitDiffs(res.Values, want); d > 0 {
					t.Errorf("submitter %d round %d (%s): %d of %d elements differ from RunSequential", g, i, res.Why, d, len(want))
					return
				}
				if res.Why == residentWhy && res.QueueWait == 0 {
					resident[g]++
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	bumper.Wait()
	for g, n := range resident {
		if n != rounds {
			t.Errorf("submitter %d: %d of %d answers were caller serves; a switch must leave the resident answering", g, n, rounds)
		}
	}
}
