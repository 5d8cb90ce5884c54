package workloads

import (
	"testing"

	"repro/internal/pattern"
)

// TestSharedSubrangeFingerprintStable pins the property the engine's
// segment sharing depends on: every member of the stream shares one
// fingerprint, so all members land on one decision-cache entry.
func TestSharedSubrangeFingerprintStable(t *testing.T) {
	ss := NewSharedSubrangeStream(6, 12, 0.5, 7)
	want := ss.Members[0].Fingerprint()
	for m, l := range ss.Members {
		if l.Fingerprint() != want {
			t.Fatalf("member %d fingerprint diverged", m)
		}
	}
	if len(ss.Stream) != 12 {
		t.Fatalf("stream length %d, want 12", len(ss.Stream))
	}
	for i, l := range ss.Stream {
		if l != ss.Members[i%len(ss.Members)] {
			t.Fatalf("stream[%d] is not round-robin", i)
		}
	}
}

// TestSharedSubrangeDecomposes proves the members carry the structure the
// stream exists to exercise: a segment decomposition aligned with the
// private windows finds most segments shared and exactly one private
// window per member.
func TestSharedSubrangeDecomposes(t *testing.T) {
	const members = 4
	ss := NewSharedSubrangeStream(members, 0, 0.5, 11)
	segIters := ss.Members[0].NumIters() / sharedWindows
	a, err := pattern.AnalyzeSegments(ss.Members, segIters)
	if err != nil {
		t.Fatal(err)
	}
	if a.Segments != sharedWindows {
		t.Fatalf("got %d segments, want %d", a.Segments, sharedWindows)
	}
	// Member 0 owns every shared segment; member m's only private
	// content is window m, so unique = windows + (members-1) extras.
	want := sharedWindows + members - 1
	if a.Unique != want {
		t.Fatalf("unique segment versions = %d, want %d", a.Unique, want)
	}
	for m := 1; m < members; m++ {
		for s := 0; s < a.Segments; s++ {
			owner := a.OwnerOf[m][s]
			if s == m%sharedWindows {
				if owner != m {
					t.Fatalf("member %d window %d owned by %d, want private", m, s, owner)
				}
			} else if owner != 0 {
				t.Fatalf("member %d segment %d owned by %d, want shared with 0", m, s, owner)
			}
		}
	}
	if a.OverlapFrac < 0.5 {
		t.Fatalf("overlap fraction %.2f, want >= 0.5", a.OverlapFrac)
	}
}

// TestSharedSubrangeDeterministic: same parameters, same stream.
func TestSharedSubrangeDeterministic(t *testing.T) {
	a := NewSharedSubrangeStream(3, 6, 0.5, 13)
	b := NewSharedSubrangeStream(3, 6, 0.5, 13)
	for m := range a.Members {
		af, _ := a.Members[m].Flat()
		bf, _ := b.Members[m].Flat()
		if len(af) != len(bf) {
			t.Fatalf("member %d shape diverged", m)
		}
		ar, br := flatRefs(a.Members[m]), flatRefs(b.Members[m])
		for i := range ar {
			if ar[i] != br[i] {
				t.Fatalf("member %d ref %d diverged", m, i)
			}
		}
	}
}

func flatRefs(l interface{ Flat() ([]int32, []int32) }) []int32 {
	_, refs := l.Flat()
	return refs
}
