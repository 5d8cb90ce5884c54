package obs

import (
	"bytes"
	"testing"
)

// toyStats exercises the schema helpers over one field of each kind.
type toyStats struct {
	Hits   uint64
	Level  int
	Weight int
}

func toyFields() []Field[toyStats] {
	return []Field[toyStats]{
		{Series: "toy_hits_total", Help: "Hits.", U64: func(s *toyStats) *uint64 { return &s.Hits }},
		{Kind: Gauge, Series: "toy_level", Help: "Level.", Int: func(s *toyStats) *int { return &s.Level }},
		{Kind: Setting, Series: "toy_weight", Help: "Weight.", Int: func(s *toyStats) *int { return &s.Weight }},
	}
}

func TestFieldMergeSubByKind(t *testing.T) {
	rows := toyFields()
	a := toyStats{Hits: 10, Level: 3, Weight: 0}
	b := toyStats{Hits: 5, Level: 4, Weight: 7}
	MergeFields(rows, &a, &b)
	if a != (toyStats{Hits: 15, Level: 7, Weight: 7}) {
		t.Errorf("merge: counters and gauges sum, a setting keeps the first non-zero value; got %+v", a)
	}
	MergeFields(rows, &a, &toyStats{Weight: 9})
	if a.Weight != 7 {
		t.Errorf("merge overwrote a setting already known: %d", a.Weight)
	}
	SubFields(rows, &a, &b)
	if a != (toyStats{Hits: 10, Level: 7, Weight: 7}) {
		t.Errorf("sub: only counters subtract; got %+v", a)
	}
	neg := toyStats{Level: -4}
	if got := rows[1].Get(&neg); got != 0 {
		t.Errorf("a negative int reads as %d, want 0", got)
	}
}

func TestWriteFields(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetricWriter(&buf)
	WriteFields(m, toyFields(), &toyStats{Hits: 3, Level: 2, Weight: 4})
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	want := "# HELP toy_hits_total Hits.\n# TYPE toy_hits_total counter\ntoy_hits_total 3\n" +
		"# HELP toy_level Level.\n# TYPE toy_level gauge\ntoy_level 2\n" +
		"# HELP toy_weight Weight.\n# TYPE toy_weight gauge\ntoy_weight 4\n"
	if got := buf.String(); got != want {
		t.Errorf("page:\n%s\nwant:\n%s", got, want)
	}
}
