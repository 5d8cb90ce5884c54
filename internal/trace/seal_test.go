package trace_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// sealLoops is a small population for the seal contract: the Zipf
// workloads' hot keys and an empty loop.
func sealLoops() []*trace.Loop {
	return append(workloads.HotKeySet(4, 0.25), trace.NewLoop("empty", 8))
}

// TestSealKeepsFingerprint: sealing memoises the fingerprint the loop
// already had, so a sealed loop keys every cache exactly as its unsealed
// twin does.
func TestSealKeepsFingerprint(t *testing.T) {
	for _, l := range sealLoops() {
		want := l.Fingerprint()
		s := l.Clone()
		if s.Sealed() {
			t.Fatalf("%s: a fresh clone is sealed", l.Name)
		}
		s.Seal()
		s.Seal() // sealing twice is a no-op
		if !s.Sealed() {
			t.Fatalf("%s: Sealed after Seal is false", l.Name)
		}
		if got := s.Fingerprint(); got != want {
			t.Errorf("%s: sealed fingerprint %016x, unsealed %016x", l.Name, got, want)
		}
		// The memo is what answers: an edit through Flat at a sampled
		// position (refs[0] always is) keeps the sealed value, while an
		// unsealed copy of the edited content moves.
		if _, refs := s.Flat(); len(refs) > 0 {
			refs[0] = (refs[0] + 1) % int32(s.NumElems)
			if s.Fingerprint() != want {
				t.Errorf("%s: an edit through Flat moved the sealed fingerprint", l.Name)
			}
			if s.Clone().Fingerprint() == want {
				t.Errorf("%s: the edit at refs[0] does not move an unsealed fingerprint", l.Name)
			}
		}
	}
}

// TestSealedMutatorsPanic: AddIter, SetFlat and SetFlatUnchecked panic on
// a sealed loop and leave it as it was.
func TestSealedMutatorsPanic(t *testing.T) {
	for name, mutate := range map[string]func(l *trace.Loop){
		"AddIter": func(l *trace.Loop) { l.AddIter(0) },
		"SetFlat": func(l *trace.Loop) {
			_ = l.SetFlat([]int32{0, 1}, []int32{0})
		},
		"SetFlatUnchecked": func(l *trace.Loop) { l.SetFlatUnchecked([]int32{0, 1}, []int32{0}) },
	} {
		t.Run(name, func(t *testing.T) {
			l := workloads.HotKeySet(1, 0.25)[0]
			l.Seal()
			offs, refs := l.Flat()
			wantOffs, wantRefs, wantFP := slices.Clone(offs), slices.Clone(refs), l.Fingerprint()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s on a sealed loop did not panic", name)
					}
				}()
				mutate(l)
			}()
			offs, refs = l.Flat()
			if !slices.Equal(offs, wantOffs) || !slices.Equal(refs, wantRefs) || l.Fingerprint() != wantFP {
				t.Fatalf("%s changed the sealed loop before panicking", name)
			}
		})
	}
}

// TestSealedCloneIsUnsealed: a clone of a sealed loop is an ordinary
// loop — unsealed, mutable, and fingerprinted from its own content.
func TestSealedCloneIsUnsealed(t *testing.T) {
	l := workloads.HotKeySet(1, 0.25)[0]
	l.Seal()
	c := l.Clone()
	if c.Sealed() {
		t.Fatal("a clone of a sealed loop is sealed")
	}
	if c.Fingerprint() != l.Fingerprint() {
		t.Fatal("a clone of a sealed loop has another fingerprint")
	}
	c.AddIter(0, 1)
	if c.NumIters() != l.NumIters()+1 {
		t.Fatalf("clone has %d iterations after AddIter, want %d", c.NumIters(), l.NumIters()+1)
	}
	if c.Fingerprint() == l.Fingerprint() {
		t.Fatal("the clone's fingerprint did not move with its content")
	}
	if err := c.SetFlat([]int32{0, 1}, []int32{0}); err != nil {
		t.Fatal(err)
	}
}

// TestSealedFingerprintFollowsGeometry: the memo is a cache, not a
// pinned value. Assigning an exported geometry word on a sealed loop
// moves its fingerprint exactly as the same assignment moves an
// unsealed copy's, and assigning it back restores the memo's value.
func TestSealedFingerprintFollowsGeometry(t *testing.T) {
	for name, edit := range map[string]func(l *trace.Loop){
		"NumElems":  func(l *trace.Loop) { l.NumElems++ },
		"ElemBytes": func(l *trace.Loop) { l.ElemBytes = 4 },
		"Op":        func(l *trace.Loop) { l.Op = trace.OpMax },
	} {
		t.Run(name, func(t *testing.T) {
			l := workloads.HotKeySet(1, 0.25)[0]
			sealed := l.Clone()
			sealed.Seal()
			orig := *sealed
			edit(l)
			edit(sealed)
			if sealed.Fingerprint() != l.Fingerprint() {
				t.Fatalf("after editing %s the sealed fingerprint is %016x, the unsealed %016x",
					name, sealed.Fingerprint(), l.Fingerprint())
			}
			if sealed.Fingerprint() == orig.Fingerprint() {
				t.Fatalf("editing %s did not move the fingerprint", name)
			}
			sealed.NumElems, sealed.ElemBytes, sealed.Op = orig.NumElems, orig.ElemBytes, orig.Op
			if sealed.Fingerprint() != orig.Fingerprint() {
				t.Fatalf("restoring %s did not restore the fingerprint", name)
			}
		})
	}
}

// TestSealConcurrentFingerprint: a loop sealed and then shared is read
// by many goroutines at once; under -race this pins that Fingerprint on
// a sealed loop only reads.
func TestSealConcurrentFingerprint(t *testing.T) {
	l := workloads.HotKeySet(1, 0.25)[0]
	want := l.Fingerprint()
	l.Seal()
	var wg sync.WaitGroup
	errs := make(chan uint64, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				if got := l.Fingerprint(); got != want {
					errs <- got
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Fatalf("concurrent sealed fingerprint %016x, want %016x", got, want)
	}
}
