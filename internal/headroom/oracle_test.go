package headroom_test

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/headroom"
	"repro/internal/logstore"
	"repro/internal/overlap"
	"repro/internal/vtree"
)

// interleaving is one shape for TestAdmitInterleavingsMatchOracle: a
// grouping, starting budgets, a prior log, and the belongs-to sets the
// random operations draw from.
type interleaving struct {
	name     string
	grouping overlap.Grouping
	aggs     []int64
	prior    []logstore.Record
	sets     []bitset.Mask
	maxCount int64
	// summaries enables the brute-force MinSlack/Deficit check (2^span
	// equations per group, so small spans only).
	summaries bool
}

// groupsOf lays out consecutive groups of the given sizes.
func groupsOf(sizes ...int) overlap.Grouping {
	g := overlap.Grouping{}
	for _, n := range sizes {
		var m bitset.Mask
		for i := 0; i < n; i++ {
			m = m.With(g.N + i)
		}
		g.Groups = append(g.Groups, overlap.Group{Members: m, Size: n})
		g.N += n
	}
	return g
}

// randomSets draws k distinct non-empty subsets of members with at
// least minSize elements.
func randomSets(rng *rand.Rand, members bitset.Mask, k, minSize int) []bitset.Mask {
	elems := members.Elems()
	seen := map[bitset.Mask]bool{}
	var out []bitset.Mask
	for len(out) < k {
		var s bitset.Mask
		for _, e := range elems {
			if rng.Intn(2) == 0 {
				s = s.With(e)
			}
		}
		if s.Len() < minSize || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

func interleavingShapes() []interleaving {
	rng := rand.New(rand.NewSource(12))
	budgets := func(n int, lo, hi int64) []int64 {
		a := make([]int64, n)
		for i := range a {
			a[i] = lo + rng.Int63n(hi-lo)
		}
		return a
	}

	// One 24-license group. Every set misses at most 8 licenses, which
	// keeps the oracle's walk at ≤ 2^8 supersets, and the first two miss
	// disjoint halves, so the span is all 24 licenses from the start.
	wide := groupsOf(24)
	wideSets := []bitset.Mask{wideSet(0, 2, 4, 6, 8, 10, 12, 14), wideSet(1, 3, 5, 7, 9, 11, 13, 15)}
	for _, s := range randomSets(rng, bitset.FullMask(24), 12, 16) {
		if s != bitset.FullMask(24) {
			wideSets = append(wideSets, s)
		}
	}

	small := groupsOf(5, 7)
	var smallSets []bitset.Mask
	for _, g := range small.Groups {
		smallSets = append(smallSets, randomSets(rng, g.Members, 8, 1)...)
	}

	// Group 0 (6 licenses) is already over-issued by the recovered log:
	// {0,1} alone carries more than A0+A1, so its deficit is negative and
	// every admission into group 1 (5 licenses) must subtract it.
	violated := groupsOf(6, 5)
	violatedAggs := budgets(11, 40, 120)
	var violatedSets []bitset.Mask
	for _, g := range violated.Groups {
		violatedSets = append(violatedSets, randomSets(rng, g.Members, 8, 1)...)
	}
	over := bitset.MaskOf(0, 1)
	violatedSets = append(violatedSets, over)

	return []interleaving{
		{name: "wide24", grouping: wide, aggs: budgets(24, 40, 120), sets: wideSets, maxCount: 500},
		{name: "small5-7", grouping: small, aggs: budgets(12, 20, 90), sets: smallSets, maxCount: 80, summaries: true},
		{
			name: "violating-log", grouping: violated, aggs: violatedAggs, sets: violatedSets, maxCount: 60, summaries: true,
			prior: []logstore.Record{
				{Set: over, Count: violatedAggs[0] + violatedAggs[1] + 75},
				{Set: bitset.MaskOf(2, 3), Count: 30},
				{Set: bitset.MaskOf(7), Count: 10},
			},
		},
	}
}

// TestAdmitInterleavingsMatchOracle drives random interleavings of
// Admit (confirmed or released), Credit, TopUp and Rebuild, and after
// every step checks that Admit's room and Headroom equal the tree walk
// over the full corpus, that Verify passes, and (small spans) that the
// summaries' MinSlack and Deficit match a brute-force scan.
func TestAdmitInterleavingsMatchOracle(t *testing.T) {
	for _, shape := range interleavingShapes() {
		t.Run(shape.name, func(t *testing.T) { runInterleaving(t, shape) })
	}
}

func runInterleaving(t *testing.T, sh interleaving) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(int64(len(sh.name))))
	aggs := append([]int64(nil), sh.aggs...)
	log := memLog(t, sh.prior...)
	c, err := headroom.Build(ctx, sh.grouping, aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	n := sh.grouping.N
	tree := func() *vtree.Tree {
		tr, err := vtree.Build(n, log)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	oracle := func(tr *vtree.Tree, set bitset.Mask) int64 {
		room, err := tr.Headroom(set, aggs)
		if err != nil {
			t.Fatal(err)
		}
		return room
	}
	pick := func() bitset.Mask { return sh.sets[rng.Intn(len(sh.sets))] }

	var admitted, rejected, credited, deficitSteps int
	for step := 0; step < 150; step++ {
		set := pick()
		switch op := rng.Intn(10); {
		case op < 5:
			want := oracle(tree(), set)
			count := 1 + rng.Int63n(sh.maxCount)
			room, ok, err := c.Admit(ctx, set, count)
			if err != nil {
				t.Fatalf("step %d Admit(%v, %d): %v", step, set, count, err)
			}
			if room != want || ok != (count <= want) {
				t.Fatalf("step %d Admit(%v, %d) = room %d ok %v, oracle room %d", step, set, count, room, ok, want)
			}
			switch {
			case !ok:
				rejected++
			case rng.Intn(8) == 0: // the log append failed
				if err := c.Release(set, count); err != nil {
					t.Fatal(err)
				}
			default:
				if err := log.Append(logstore.Record{Set: set, Count: count}); err != nil {
					t.Fatal(err)
				}
				c.Confirm()
				admitted++
			}
		case op < 8:
			net, err := c.NetCount(set)
			if err != nil {
				t.Fatal(err)
			}
			if net == 0 {
				continue
			}
			count := 1 + rng.Int63n(net)
			c.Hold()
			if err := log.Append(logstore.Record{Kind: logstore.KindRevoke, Set: set, Count: count}); err != nil {
				t.Fatal(err)
			}
			if err := c.Credit(ctx, set, count); err != nil {
				t.Fatalf("step %d Credit(%v, %d): %v", step, set, count, err)
			}
			c.Confirm()
			credited++
		case op < 9:
			i, extra := rng.Intn(n), 1+rng.Int63n(40)
			if err := c.TopUp(i, extra); err != nil {
				t.Fatal(err)
			}
			aggs[i] += extra
		default:
			if err := c.Rebuild(ctx, sh.grouping, aggs); err != nil {
				t.Fatal(err)
			}
		}

		tr := tree()
		for _, probe := range []bitset.Mask{set, pick()} {
			room, err := c.Headroom(probe)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracle(tr, probe); room != want {
				t.Fatalf("step %d: Headroom(%v) = %d, oracle %d", step, probe, room, want)
			}
		}
		if res, err := c.Verify(ctx, log); err != nil || res.Skipped {
			t.Fatalf("step %d: Verify = %+v, %v", step, res, err)
		}
		sums := c.Summaries()
		for k, s := range sums {
			if s.Deficit < 0 {
				deficitSteps++
			}
			if !sh.summaries {
				continue
			}
			ms := bruteMinSlack(log, tr, aggs, sh.grouping.Groups[k].Members)
			if s.MinSlack != ms || s.Deficit != min(0, ms) || s.Unbounded != (ms == math.MaxInt64) {
				t.Fatalf("step %d group %d: summary min slack %d deficit %d unbounded %v, brute force %d",
					step, k, s.MinSlack, s.Deficit, s.Unbounded, ms)
			}
		}
	}
	if admitted == 0 || rejected == 0 || credited == 0 {
		t.Fatalf("interleaving exercised too little: admitted=%d rejected=%d credited=%d", admitted, rejected, credited)
	}
	if sh.prior != nil && deficitSteps == 0 {
		t.Fatal("violating log never showed a negative deficit")
	}
	if p := c.Pending(); p != 0 {
		t.Fatalf("pending = %d after the run", p)
	}
}

// bruteMinSlack scans every non-empty subset of the group's span (the
// union of its sets with a non-zero net count) for the smallest slack.
func bruteMinSlack(log *logstore.Mem, tr *vtree.Tree, aggs []int64, members bitset.Mask) int64 {
	net := map[bitset.Mask]int64{}
	for _, r := range log.Records() {
		net[r.Set] += r.Effective()
	}
	var span bitset.Mask
	for set, n := range net {
		if n != 0 && set.SubsetOf(members) {
			span = span.Union(set)
		}
	}
	best := int64(math.MaxInt64)
	span.Subsets(func(s bitset.Mask) bool {
		var a int64
		s.ForEach(func(e int) bool {
			a += aggs[e]
			return true
		})
		best = min(best, a-tr.SumSubsets(s))
		return true
	})
	return best
}

// TestConcurrentAdmitNeverOvershoots races admissions, headroom reads
// and summaries on one group's shared cut network: the admitted log
// must violate no equation, and Verify must pass once all are confirmed.
func TestConcurrentAdmitNeverOvershoots(t *testing.T) {
	ctx := context.Background()
	grouping := groupsOf(8)
	aggs := []int64{30, 40, 50, 60, 30, 40, 50, 60}
	sets := randomSets(rand.New(rand.NewSource(5)), grouping.Groups[0].Members, 12, 1)
	log := logstore.NewMem(0)
	c, err := headroom.Build(ctx, grouping, aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				set := sets[rng.Intn(len(sets))]
				switch rng.Intn(6) {
				case 0:
					if _, err := c.Headroom(set); err != nil {
						t.Error(err)
					}
				case 1:
					c.Summaries()
				default:
					count := 1 + rng.Int63n(4)
					_, ok, err := c.Admit(ctx, set, count)
					if err != nil || !ok {
						if err != nil {
							t.Error(err)
						}
						continue
					}
					if err := log.Append(logstore.Record{Set: set, Count: count}); err != nil {
						t.Error(err)
					}
					c.Confirm()
				}
			}
		}(int64(w))
	}
	wg.Wait()
	tr, err := vtree.Build(grouping.N, log)
	if err != nil {
		t.Fatal(err)
	}
	if ms := bruteMinSlack(log, tr, aggs, grouping.Groups[0].Members); ms < 0 {
		t.Fatalf("concurrent admissions overshot a budget: min slack %d", ms)
	}
	if ms := c.Summaries()[0].MinSlack; ms != bruteMinSlack(log, tr, aggs, grouping.Groups[0].Members) {
		t.Fatalf("summary min slack %d disagrees with the log", ms)
	}
	if res, err := c.Verify(ctx, log); err != nil || res.Skipped {
		t.Fatalf("Verify = %+v, %v", res, err)
	}
}
