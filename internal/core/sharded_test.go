package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/logstore"
	"repro/internal/overlap"
	"repro/internal/vtree"
)

// randomShardInstance plants 1–5 groups over up to 16 licenses and a log
// confined to single groups (Corollary 1.1), with budgets tight enough
// that a healthy fraction of runs violate equations.
func randomShardInstance(r *rand.Rand) (overlap.Grouping, []logstore.Record, []int64) {
	const maxN = 16
	numGroups := 1 + r.Intn(5)
	var groups []overlap.Group
	n := 0
	for k := 0; k < numGroups && n < maxN; k++ {
		size := 1 + r.Intn(6)
		if n+size > maxN {
			size = maxN - n
		}
		var m bitset.Mask
		for i := 0; i < size; i++ {
			m = m.With(n + i)
		}
		groups = append(groups, overlap.Group{Members: m, Size: size})
		n += size
	}
	gr := overlap.Grouping{N: n, Groups: groups}

	var records []logstore.Record
	for i := 0; i < 150+r.Intn(300); i++ {
		g := groups[r.Intn(len(groups))]
		sub := bitset.Mask(r.Int63()) & g.Members
		if sub.Empty() {
			sub = bitset.MaskOf(g.Members.Min())
		}
		records = append(records, logstore.Record{Set: sub, Count: int64(1 + r.Intn(30))})
	}
	a := make([]int64, n)
	for i := range a {
		a[i] = int64(50 + r.Intn(3000))
	}
	return gr, records, a
}

// serialPointerReport is the pre-flat reference implementation: Algorithm 2
// on every group's pointer tree, merged exactly like Validate.
func serialPointerReport(t *testing.T, trees []*GroupTree) Report {
	t.Helper()
	results := make([]vtree.Result, len(trees))
	for k, gt := range trees {
		res, err := gt.Tree.ValidateAll(gt.Aggregates)
		if err != nil {
			t.Fatalf("group %d: %v", k, err)
		}
		results[k] = res
	}
	return merge(trees, results)
}

// reportString renders a report fully, so equality is byte-level: equation
// counts, violation sets, CV/AV values, and per-group results.
func reportString(rep Report) string { return fmt.Sprintf("%+v", rep) }

func TestShardedMatchesSerialPointerProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		gr, records, a := randomShardInstance(r)
		tree, err := vtree.BuildRecords(gr.N, records)
		if err != nil {
			t.Fatal(err)
		}
		trees, err := Divide(tree, gr, a)
		if err != nil {
			t.Fatal(err)
		}
		want := serialPointerReport(t, trees)
		for _, workers := range []int{1, 2, 3, 4, 8} {
			got, err := ValidateParallel(trees, workers)
			if err != nil {
				t.Fatal(err)
			}
			if reportString(got) != reportString(want) {
				t.Fatalf("seed %d workers %d: sharded report diverges from serial pointer report\n got %s\nwant %s",
					seed, workers, reportString(got), reportString(want))
			}
		}
		// Validate is the workers=1 path and must agree too.
		got, err := Validate(trees)
		if err != nil {
			t.Fatal(err)
		}
		if reportString(got) != reportString(want) {
			t.Fatalf("seed %d: Validate diverges from serial pointer report", seed)
		}
	}
}

func TestShardBudgetsDominantGroup(t *testing.T) {
	// One 14-license group next to two singletons: the dominant group must
	// receive essentially the whole budget, the singletons one shard each.
	r := rand.New(rand.NewSource(42))
	var gr overlap.Grouping
	gr.N = 16
	gr.Groups = []overlap.Group{
		{Members: bitset.FullMask(14), Size: 14},
		{Members: bitset.MaskOf(14), Size: 1},
		{Members: bitset.MaskOf(15), Size: 1},
	}
	var records []logstore.Record
	for i := 0; i < 50; i++ {
		set := bitset.Mask(r.Int63()) & bitset.FullMask(14)
		if set.Empty() {
			set = bitset.MaskOf(0)
		}
		records = append(records, logstore.Record{Set: set, Count: 5})
	}
	a := make([]int64, 16)
	for i := range a {
		a[i] = 1 << 30
	}
	tree, err := vtree.BuildRecords(gr.N, records)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := Divide(tree, gr, a)
	if err != nil {
		t.Fatal(err)
	}
	budgets := shardBudgets(trees, 8)
	if budgets[0] < 7 {
		t.Errorf("dominant group got %d of 8 workers", budgets[0])
	}
	if budgets[1] != 1 || budgets[2] != 1 {
		t.Errorf("singleton budgets = %d, %d, want 1, 1", budgets[1], budgets[2])
	}
}
