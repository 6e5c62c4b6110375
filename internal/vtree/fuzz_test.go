package vtree

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/logstore"
)

// FuzzTreeAgainstBruteForce feeds an arbitrary byte string interpreted as
// a sequence of (set, count) insertions into the validation tree and
// cross-checks C⟨S⟩, C[S], and Headroom against direct log computation.
func FuzzTreeAgainstBruteForce(f *testing.F) {
	f.Add([]byte{0x03, 0x05, 0x02, 0x01})
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0x01, 0x01, 0x80, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 8
		tree := mustNew(n)
		var records []logstore.Record
		full := bitset.FullMask(n)
		for i := 0; i+1 < len(data); i += 2 {
			set := bitset.Mask(data[i]) & full
			count := int64(data[i+1])
			if set.Empty() || count == 0 {
				continue
			}
			if err := tree.Insert(set, count); err != nil {
				t.Fatalf("insert(%v, %d): %v", set, count, err)
			}
			records = append(records, logstore.Record{Set: set, Count: count})
		}
		// Probe a handful of sets derived from the input.
		probes := []bitset.Mask{full, bitset.MaskOf(0), bitset.MaskOf(1, 3, 5)}
		for i := 0; i+1 < len(data) && i < 8; i += 2 {
			if m := bitset.Mask(data[i]^data[i+1]) & full; !m.Empty() {
				probes = append(probes, m)
			}
		}
		for _, s := range probes {
			var wantSum, wantExact int64
			for _, r := range records {
				if r.Set.SubsetOf(s) {
					wantSum += r.Count
				}
				if r.Set == s {
					wantExact += r.Count
				}
			}
			if got := tree.SumSubsets(s); got != wantSum {
				t.Fatalf("SumSubsets(%v) = %d, want %d", s, got, wantSum)
			}
			if got := tree.Count(s); got != wantExact {
				t.Fatalf("Count(%v) = %d, want %d", s, got, wantExact)
			}
		}
		// Records round-trip.
		rebuilt, err := BuildRecords(n, tree.Records())
		if err != nil {
			t.Fatal(err)
		}
		if !rebuilt.Equal(tree) {
			t.Fatal("Records round-trip changed the tree")
		}
	})
}
