package engine

import (
	"errors"
	"testing"

	"repro/internal/trace"
)

// TestMulRefusedEverywhere: every in-process entry point of a job
// refuses a mul loop with ErrMulUnserved before it touches any state —
// no table entry, job, session open or queued item — and the engine
// then answers an add loop with RunSequential's bits as before.
func TestMulRefusedEverywhere(t *testing.T) {
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	mul := simpLoop("mul", 512, 256, 16, 31)
	mul.Op = trace.OpMul
	add := simpLoop("add", 512, 256, 16, 32)
	want := add.RunSequential()

	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Submit", func() error { _, err := e.Submit(mul); return err }},
		{"SubmitAsync", func() error { _, err := e.SubmitAsync(mul); return err }},
		{"SubmitFingerprinted", func() error {
			_, err := e.SubmitFingerprinted(mul, mul.Fingerprint(), nil, 0)
			return err
		}},
		{"OpenSession", func() error { _, _, err := e.OpenSession(mul, nil); return err }},
		{"AdoptSessionTenant", func() error { _, _, err := e.AdoptSessionTenant(mul.Clone(), nil, 0); return err }},
	} {
		before := e.Stats()
		if err := c.run(); !errors.Is(err, ErrMulUnserved) {
			t.Fatalf("%s: err %v, want ErrMulUnserved", c.name, err)
		}
		after := e.Stats()
		if after.CacheEntries != before.CacheEntries || after.Jobs != before.Jobs ||
			after.SessionOpens != before.SessionOpens || e.q.queued() != 0 {
			t.Fatalf("%s: the refusal left state behind: entries %d→%d, jobs %d→%d, session opens %d→%d, queued %d",
				c.name, before.CacheEntries, after.CacheEntries, before.Jobs, after.Jobs,
				before.SessionOpens, after.SessionOpens, e.q.queued())
		}
		res, err := e.Submit(add)
		if err != nil {
			t.Fatalf("%s: add loop after the refusal: %v", c.name, err)
		}
		if d := bitDiffs(res.Values, want); d > 0 {
			t.Fatalf("%s: add loop after the refusal differs from RunSequential in %d elements", c.name, d)
		}
	}
}
