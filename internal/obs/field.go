package obs

// Kind says how a stats scalar behaves over time, which fixes how two
// snapshots of it combine (MergeFields), how a later one is read against
// an earlier one (SubFields), and its Prometheus type.
type Kind uint8

// The scalar kinds.
const (
	// Counter only ever grows: merging sums, a delta subtracts, the
	// series is a counter and its name ends in _total.
	Counter Kind = iota
	// Gauge is a level (a residency count): merging sums — the tier holds
	// what its backends hold — and a delta carries the newer value.
	Gauge
	// Setting is a configured value echoed in the snapshot (a tenant's
	// weight), equal on every backend: merging keeps the first non-zero
	// one, a delta carries it. Exported as a gauge.
	Setting
)

// PromType returns the kind's Prometheus TYPE.
func (k Kind) PromType() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// Field is one row of a stats schema: everything the repo knows about
// one scalar of the stats struct T. A struct's table lists its rows in
// /metrics page order, and every consumer — snapshot, merge, delta, wire
// codec, /metrics, reports, the docs check — is a loop over it, so a
// counter is declared once, beside the struct field it describes.
type Field[T any] struct {
	// Kind gives the merge and delta rule and the Prometheus type.
	Kind Kind
	// Series and Help are the Prometheus family name and HELP text.
	Series, Help string
	// Key names the row in reports — the shutdown summary
	// (metrics.WriteSummary) of every table, and reduxserve -json for
	// engine.StatsFields — and, for the engine's tables, in the keyed
	// STATS frame. Unique within its table.
	Key string
	// U64 returns the address of the scalar inside a T, when the field
	// is a uint64; exactly one of U64 and Int is set.
	U64 func(*T) *uint64
	// Int is U64 for an int-typed field (a residency count, a weight).
	Int func(*T) *int
}

// Get reads the row's scalar out of v (a negative int reads as zero).
func (f *Field[T]) Get(v *T) uint64 {
	if f.Int == nil {
		return *f.U64(v)
	}
	if n := *f.Int(v); n > 0 {
		return uint64(n)
	}
	return 0
}

// Set stores x into the row's scalar of v.
func (f *Field[T]) Set(v *T, x uint64) {
	if f.Int == nil {
		*f.U64(v) = x
	} else {
		*f.Int(v) = int(x)
	}
}

// MergeFields folds src's scalars into dst by each row's Kind.
func MergeFields[T any](rows []Field[T], dst, src *T) {
	for i := range rows {
		f := &rows[i]
		if d, s := f.Get(dst), f.Get(src); f.Kind != Setting {
			f.Set(dst, d+s)
		} else if d == 0 {
			f.Set(dst, s)
		}
	}
}

// SubFields turns dst's counters into the growth since the earlier
// snapshot old; gauges and settings keep dst's (newer) value.
func SubFields[T any](rows []Field[T], dst, old *T) {
	for i := range rows {
		if f := &rows[i]; f.Kind == Counter {
			f.Set(dst, f.Get(dst)-f.Get(old))
		}
	}
}

// WriteFields renders one family per row, in table order, each with the
// single unlabelled sample v holds.
func WriteFields[T any](m *MetricWriter, rows []Field[T], v *T) {
	for i := range rows {
		f := &rows[i]
		m.Family(f.Series, f.Kind.PromType(), f.Help)
		m.Sample(f.Series, float64(f.Get(v)))
	}
}
