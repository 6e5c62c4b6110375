package vtree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/logstore"
)

// benchRecords generates records confined to groups of the given size so
// tree shape resembles the §5 workloads.
func benchRecords(n, groupSize, count int, seed int64) []logstore.Record {
	r := rand.New(rand.NewSource(seed))
	numGroups := (n + groupSize - 1) / groupSize
	out := make([]logstore.Record, 0, count)
	for len(out) < count {
		g := r.Intn(numGroups)
		lo := g * groupSize
		hi := lo + groupSize
		if hi > n {
			hi = n
		}
		var set bitset.Mask
		for j := lo; j < hi; j++ {
			if r.Intn(3) == 0 {
				set = set.With(j)
			}
		}
		if set.Empty() {
			set = bitset.MaskOf(lo + r.Intn(hi-lo))
		}
		out = append(out, logstore.Record{Set: set, Count: int64(10 + r.Intn(21))})
	}
	return out
}

func BenchmarkInsert(b *testing.B) {
	for _, n := range []int{10, 35} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			recs := benchRecords(n, 7, 4096, 1)
			tree := mustNew(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tree.InsertRecord(recs[i%len(recs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSumSubsets(b *testing.B) {
	for _, n := range []int{10, 20, 35} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			recs := benchRecords(n, 7, 8192, 2)
			tree, err := BuildRecords(n, recs)
			if err != nil {
				b.Fatal(err)
			}
			full := bitset.FullMask(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree.SumSubsets(full)
			}
		})
	}
}

// BenchmarkFlatSumSubsets measures the flat SoA walk against the pointer
// tree's (BenchmarkSumSubsets) on the same workloads.
func BenchmarkFlatSumSubsets(b *testing.B) {
	for _, n := range []int{10, 20, 35} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			recs := benchRecords(n, 7, 8192, 2)
			tree, err := BuildRecords(n, recs)
			if err != nil {
				b.Fatal(err)
			}
			flat := tree.Flatten()
			full := bitset.FullMask(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flat.SumSubsets(full)
			}
		})
	}
}

func BenchmarkValidateAll(b *testing.B) {
	for _, n := range []int{10, 14, 18} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			recs := benchRecords(n, 7, 8192, 3)
			tree, err := BuildRecords(n, recs)
			if err != nil {
				b.Fatal(err)
			}
			a := make([]int64, n)
			for i := range a {
				a[i] = 1 << 40 // no violations: measure pure evaluation
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.ValidateAll(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlatValidateAllSharded measures the flat validator across shard
// budgets. On one core the interesting number is the overhead of sharding
// (~1.0x); on multicore machines the sharded runs scale.
func BenchmarkFlatValidateAllSharded(b *testing.B) {
	for _, n := range []int{14, 18} {
		recs := benchRecords(n, n, 8192, 3) // one group: worst case for division
		tree, err := BuildRecords(n, recs)
		if err != nil {
			b.Fatal(err)
		}
		flat := tree.Flatten()
		a := make([]int64, n)
		for i := range a {
			a[i] = 1 << 40
		}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("N=%d/workers=%d", n, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := flat.ValidateAllSharded(a, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkHeadroom(b *testing.B) {
	const n = 16
	recs := benchRecords(n, 8, 8192, 4)
	tree, err := BuildRecords(n, recs)
	if err != nil {
		b.Fatal(err)
	}
	a := make([]int64, n)
	for i := range a {
		a[i] = 1 << 40
	}
	base := bitset.MaskOf(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Headroom(base, a); err != nil {
			b.Fatal(err)
		}
	}
}
