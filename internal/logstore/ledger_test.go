package logstore

import (
	"testing"

	"repro/internal/bitset"
)

// ledgerWithBuckets builds a ledger of sets × buckets TTL issues: set i
// holds one bucket per expiry 1..buckets.
func ledgerWithBuckets(sets, buckets int) *Ledger {
	l := &Ledger{}
	for i := 0; i < sets; i++ {
		set := bitset.Mask(i + 1)
		for e := 1; e <= buckets; e++ {
			l.Apply(Record{Set: set, Count: 1, Meta: Meta{Expiry: int64(e)}})
		}
	}
	return l
}

// BenchmarkLedgerCanonical times the snapshot fold wal.Store runs under
// its lock, at 300 sets × 300 TTL buckets each.
func BenchmarkLedgerCanonical(b *testing.B) {
	l := ledgerWithBuckets(300, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(l.Canonical()); got != 300*300 {
			b.Fatalf("canonical records = %d, want %d", got, 300*300)
		}
	}
}
