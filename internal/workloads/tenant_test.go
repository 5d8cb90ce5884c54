package workloads

import "testing"

// TestTenantMixStreamDisjoint pins the property isolation experiments
// lean on: no pattern fingerprint appears in two tenants' streams, so
// shared cache entries cannot silently couple the tenants a test means
// to keep independent.
func TestTenantMixStreamDisjoint(t *testing.T) {
	lengths := []int{40, 40, 400}
	streams := TenantMixStream(lengths, 6, 0.05, 42)
	if len(streams) != len(lengths) {
		t.Fatalf("got %d streams, want %d", len(streams), len(lengths))
	}
	owner := make(map[uint64]int)
	for i, stream := range streams {
		if len(stream) != lengths[i] {
			t.Fatalf("tenant %d stream length %d, want %d", i, len(stream), lengths[i])
		}
		for _, l := range stream {
			fp := l.Fingerprint()
			if prev, seen := owner[fp]; seen && prev != i {
				t.Fatalf("fingerprint %x shared by tenants %d and %d", fp, prev, i)
			}
			owner[fp] = i
		}
	}
}

// TestTenantMixStreamDeterministic pins that equal seeds reproduce the
// exact stream — the precondition for seeded fairness traces.
func TestTenantMixStreamDeterministic(t *testing.T) {
	a := TenantMixStream([]int{30, 30}, 4, 0.05, 7)
	b := TenantMixStream([]int{30, 30}, 4, 0.05, 7)
	for i := range a {
		for j := range a[i] {
			if a[i][j].Fingerprint() != b[i][j].Fingerprint() {
				t.Fatalf("tenant %d position %d differs across equal seeds", i, j)
			}
		}
	}
}
