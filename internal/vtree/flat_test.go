package vtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/logstore"
)

// randomRecords builds a seeded random log over n licenses.
func randomRecords(t *testing.T, n, count int, seed int64) []logstore.Record {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	out := make([]logstore.Record, 0, count)
	for i := 0; i < count; i++ {
		set := bitset.Mask(r.Int63()) & bitset.FullMask(n)
		if set.Empty() {
			set = bitset.MaskOf(r.Intn(n))
		}
		out = append(out, logstore.Record{Set: set, Count: int64(1 + r.Intn(50))})
	}
	return out
}

func TestFlattenShape(t *testing.T) {
	tree := mustNew(4)
	for _, r := range []logstore.Record{
		{Set: bitset.MaskOf(0, 2), Count: 5},
		{Set: bitset.MaskOf(1), Count: 3},
		{Set: bitset.MaskOf(0, 1, 3), Count: 7},
	} {
		if err := tree.InsertRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	f := tree.Flatten()
	if f.n != 4 {
		t.Errorf("N = %d, want 4", f.n)
	}
	if nodes := len(f.label) - 1; nodes != tree.Stats().Nodes {
		t.Errorf("flat nodes = %d, pointer nodes = %d", nodes, tree.Stats().Nodes)
	}
	if f.label[0] != -1 || f.count[0] != 0 {
		t.Errorf("root sentinel = (L=%d, C=%d)", f.label[0], f.count[0])
	}
	// Children of every node must be contiguous and label-ascending.
	for i := range f.label {
		for j := f.childStart[i] + 1; j < f.childEnd[i]; j++ {
			if f.label[j] <= f.label[j-1] {
				t.Errorf("node %d: children labels not ascending: %v then %v", i, f.label[j-1], f.label[j])
			}
		}
	}
}

func TestFlatSumSubsetsMatchesPointer(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed + 100))
		n := 1 + r.Intn(16)
		tree, err := BuildRecords(n, randomRecords(t, n, 200, seed))
		if err != nil {
			t.Fatal(err)
		}
		f := tree.Flatten()
		full := bitset.FullMask(n)
		// Every mask for small n, random masks otherwise.
		if n <= 12 {
			for m := bitset.Mask(0); m <= full; m++ {
				if got, want := f.SumSubsets(m), tree.SumSubsets(m); got != want {
					t.Fatalf("seed %d n %d: flat SumSubsets(%v) = %d, pointer %d", seed, n, m, got, want)
				}
			}
		} else {
			for i := 0; i < 4096; i++ {
				m := bitset.Mask(r.Int63()) & full
				if got, want := f.SumSubsets(m), tree.SumSubsets(m); got != want {
					t.Fatalf("seed %d n %d: flat SumSubsets(%v) = %d, pointer %d", seed, n, m, got, want)
				}
			}
		}
	}
}

func TestFlatValidateShardedMatchesSerialPointer(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed + 900))
		n := 1 + r.Intn(14)
		tree, err := BuildRecords(n, randomRecords(t, n, 300, seed))
		if err != nil {
			t.Fatal(err)
		}
		// Tight budgets so a healthy fraction of equations violate.
		a := make([]int64, n)
		for i := range a {
			a[i] = int64(r.Intn(2000))
		}
		want, err := tree.ValidateAll(a)
		if err != nil {
			t.Fatal(err)
		}
		f := tree.Flatten()
		for _, workers := range []int{1, 2, 3, 4, 7, 8, 16} {
			got, err := f.ValidateAllSharded(a, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got.Equations != want.Equations {
				t.Fatalf("seed %d n %d workers %d: equations %d, want %d",
					seed, n, workers, got.Equations, want.Equations)
			}
			if !violationsEqual(got.Violations, want.Violations) {
				t.Fatalf("seed %d n %d workers %d: violations diverge:\n got %v\nwant %v",
					seed, n, workers, got.Violations, want.Violations)
			}
			// Byte-identical reports: same rendering, not just same sets.
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Fatalf("seed %d n %d workers %d: reports render differently", seed, n, workers)
			}
		}
	}
}

func violationsEqual(a, b []Violation) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func TestFlatValidateShardedErrors(t *testing.T) {
	tree := mustNew(3)
	if err := tree.Insert(bitset.MaskOf(0), 1); err != nil {
		t.Fatal(err)
	}
	f := tree.Flatten()
	if _, err := f.ValidateAllSharded([]int64{1, 2}, 1); err == nil {
		t.Error("wrong aggregate length accepted")
	}
	if _, err := f.ValidateAllSharded([]int64{1, 2, 3}, 0); err == nil {
		t.Error("zero workers accepted")
	}
}

func TestFlatWorkersBeyondMaskSpace(t *testing.T) {
	// More workers than masks: shard count must clamp to 2^n.
	tree := mustNew(2)
	if err := tree.Insert(bitset.MaskOf(0, 1), 9); err != nil {
		t.Fatal(err)
	}
	a := []int64{4, 4}
	want, err := tree.ValidateAll(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tree.Flatten().ValidateAllSharded(a, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got.Equations != want.Equations || !violationsEqual(got.Violations, want.Violations) {
		t.Fatalf("clamped sharding diverges: got %+v want %+v", got, want)
	}
}

func TestFlattenSnapshotIsImmutable(t *testing.T) {
	tree := mustNew(3)
	if err := tree.Insert(bitset.MaskOf(0, 1), 4); err != nil {
		t.Fatal(err)
	}
	f := tree.Flatten()
	before := f.SumSubsets(bitset.FullMask(3))
	if err := tree.Insert(bitset.MaskOf(2), 10); err != nil {
		t.Fatal(err)
	}
	if got := f.SumSubsets(bitset.FullMask(3)); got != before {
		t.Errorf("snapshot changed after insert: %d -> %d", before, got)
	}
	if tree.Flatten().SumSubsets(bitset.FullMask(3)) != before+10 {
		t.Error("re-flatten missed the new record")
	}
}
