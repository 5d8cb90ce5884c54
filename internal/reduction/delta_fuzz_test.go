package reduction

import (
	"sort"
	"testing"

	"repro/internal/trace"
)

// fuzzBytes hands out the fuzz input a byte at a time; an exhausted
// input reads as zeros, so every prefix of an input is itself an input.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

func (b *fuzzBytes) next16() int { return b.next()<<8 | b.next() }

// validDeltas is the batch contract stated independently of Apply:
// strictly increasing in-range positions, in-range references.
func validDeltas(ds []RefDelta, totalRefs, numElems int) bool {
	prev := int32(-1)
	for _, d := range ds {
		if d.Pos <= prev || int(d.Pos) >= totalRefs || d.Ref < 0 || int(d.Ref) >= numElems {
			return false
		}
		prev = d.Pos
	}
	return true
}

// FuzzDeltaState searches for a loop shape, operator and delta stream
// that break the session contract. The input decodes into a small ragged
// loop (empty iterations included) and batches until the bytes run out;
// two header bytes that once picked a segment width and a processor
// count are still read, so the checked-in seeds decode as before. Batches
// are left raw — unsorted, duplicated, out of range — often enough that
// rejection is exercised as much as application. Properties:
//
//   - Apply accepts a batch exactly when it is well-formed;
//   - a rejected batch mutates nothing: the loop is unchanged and the
//     next read returns the previous bits;
//   - every accepted read is RunSequential's bits over the mutated
//     mirror, and Computed counts the iterations the batch landed in.
func FuzzDeltaState(f *testing.F) {
	// The structured seeds live in testdata/fuzz/FuzzDeltaState: one
	// stream per operator and width, the element shapes, rejected batches
	// between accepted ones, and the degenerate loops.
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		elems := 1 + in.next()%48
		iters := in.next() % 96
		op := deltaOps[in.next()%len(deltaOps)]
		in.next() // once the segment width
		in.next() // once the processor count
		l := trace.NewLoop("fuzz", elems)
		l.Op = op
		var refs []int32
		for i := 0; i < iters; i++ {
			refs = refs[:0]
			for k := in.next() % 5; k > 0; k-- {
				refs = append(refs, int32(in.next()%elems))
			}
			l.AddIter(refs...)
		}
		total := l.TotalRefs()

		mirror := l.Clone()
		dst := make([]float64, elems)
		st, err := NewDeltaState(l, 0, 1, nil, dst)
		if err != nil {
			t.Fatalf("NewDeltaState: %v", err)
		}
		want := mirror.RunSequential()
		requireBitEqual(t, want, dst, "open read")

		for len(in) > 0 {
			shape := in.next()
			ds := make([]RefDelta, shape%8)
			for i := range ds {
				// A few positions and references past either end of the range.
				ds[i] = RefDelta{
					Pos: int32(in.next16()%(total+4)) - 2,
					Ref: int32(in.next()%(elems+4)) - 2,
				}
			}
			if shape&0x30 != 0 { // three inputs in four arrive sorted
				sort.Slice(ds, func(i, j int) bool { return ds[i].Pos < ds[j].Pos })
			}
			valid := validDeltas(ds, total, elems)
			if !valid {
				if _, err := st.Apply(ds, 1, nil, dst); err == nil {
					t.Fatalf("malformed batch %v accepted", ds)
				}
				if !st.Loop().EqualPattern(mirror) {
					t.Fatalf("rejected batch %v mutated the session loop", ds)
				}
				if _, err := st.Apply(nil, 1, nil, dst); err != nil {
					t.Fatal(err)
				}
				requireBitEqual(t, want, dst, "read after a rejected batch")
				continue
			}
			applyChecked(t, st, mirror, ds, dst, "delta read")
			want = mirror.RunSequential()
		}
	})
}
