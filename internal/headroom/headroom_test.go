package headroom_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/headroom"
	"repro/internal/logstore"
	"repro/internal/overlap"
	"repro/internal/vtree"
	"repro/internal/workload"
)

// oracleRoom recomputes headroom the pre-cache way: build the full
// validation tree from the log and walk every superset equation over the
// whole universe. The cache must agree with this exactly.
func oracleRoom(t *testing.T, n int, log logstore.Store, aggs []int64, set bitset.Mask) int64 {
	t.Helper()
	tree, err := vtree.Build(n, log)
	if err != nil {
		t.Fatalf("oracle tree: %v", err)
	}
	room, err := tree.Headroom(set, aggs)
	if err != nil {
		t.Fatalf("oracle headroom(%v): %v", set, err)
	}
	return room
}

// grouping2 is a hand-built two-group universe over 6 licenses.
func grouping2() overlap.Grouping {
	return overlap.Grouping{
		N: 6,
		Groups: []overlap.Group{
			{Members: bitset.MaskOf(0, 1, 2), Size: 3},
			{Members: bitset.MaskOf(3, 4, 5), Size: 3},
		},
	}
}

func memLog(t *testing.T, recs ...logstore.Record) *logstore.Mem {
	t.Helper()
	m := logstore.NewMem(len(recs))
	for _, r := range recs {
		if err := m.Append(r); err != nil {
			t.Fatalf("append %v: %v", r, err)
		}
	}
	return m
}

func TestEmptyLogHeadroomIsAggregateSum(t *testing.T) {
	aggs := []int64{10, 20, 30, 40, 50, 60}
	c, err := headroom.Build(context.Background(), grouping2(), aggs, memLog(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []bitset.Mask{bitset.MaskOf(0), bitset.MaskOf(1, 2), bitset.MaskOf(3, 4, 5)} {
		room, err := c.Headroom(set)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleRoom(t, 6, memLog(t), aggs, set)
		if room != want {
			t.Errorf("Headroom(%v) = %d, oracle %d", set, room, want)
		}
	}
}

// observedSets collects the distinct belongs-to sets of a workload log.
func observedSets(recs []logstore.Record) []bitset.Mask {
	seen := map[bitset.Mask]bool{}
	var out []bitset.Mask
	for _, r := range recs {
		if !seen[r.Set] {
			seen[r.Set] = true
			out = append(out, r.Set)
		}
	}
	return out
}

// TestBuildMatchesTreeWalk checks the central equivalence on generated
// corpora: for every observed set and every singleton, the cached
// headroom equals the full-universe tree walk.
func TestBuildMatchesTreeWalk(t *testing.T) {
	for _, cfg := range []workload.Config{
		{N: 6, Groups: 2, Dims: 2, RecordsPerLicense: 30, Seed: 1},
		{N: 10, Groups: 3, Dims: 2, RecordsPerLicense: 40, Seed: 7},
		{N: 12, Groups: 4, Dims: 3, RecordsPerLicense: 25, Seed: 42},
	} {
		w := workload.MustGenerate(cfg)
		grouping := overlap.GroupsOf(w.Corpus)
		aggs := w.Corpus.Aggregates()
		log := w.Store()
		c, err := headroom.Build(context.Background(), grouping, aggs, log)
		if err != nil {
			t.Fatalf("N=%d: %v", cfg.N, err)
		}
		sets := observedSets(w.Records)
		for i := 0; i < cfg.N; i++ {
			sets = append(sets, bitset.MaskOf(i))
		}
		for _, set := range sets {
			room, err := c.Headroom(set)
			if err != nil {
				t.Fatalf("N=%d Headroom(%v): %v", cfg.N, set, err)
			}
			if want := oracleRoom(t, cfg.N, log, aggs, set); room != want {
				t.Errorf("N=%d seed=%d: Headroom(%v) = %d, oracle %d",
					cfg.N, cfg.Seed, set, room, want)
			}
		}
	}
}

// TestAdmitSequenceMatchesOracle drives a random admission sequence and
// checks every decision and every reported room against a tree rebuilt
// from scratch before each step.
func TestAdmitSequenceMatchesOracle(t *testing.T) {
	w := workload.MustGenerate(workload.Config{
		N: 10, Groups: 3, Dims: 2, RecordsPerLicense: 10, Seed: 3,
		// Budgets tight enough that the sequence drains some groups and
		// exercises rejections.
		AggregateLo: 1500, AggregateHi: 3000,
	})
	grouping := overlap.GroupsOf(w.Corpus)
	aggs := w.Corpus.Aggregates()
	log := w.Store()
	c, err := headroom.Build(context.Background(), grouping, aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	sets := observedSets(w.Records)
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	admitted, rejected := 0, 0
	for step := 0; step < 200; step++ {
		set := sets[rng.Intn(len(sets))]
		count := int64(1 + rng.Intn(800))
		want := oracleRoom(t, 10, log, aggs, set)
		room, ok, err := c.Admit(ctx, set, count)
		if err != nil {
			t.Fatalf("step %d Admit(%v, %d): %v", step, set, count, err)
		}
		if room != want {
			t.Fatalf("step %d: Admit(%v, %d) room = %d, oracle %d", step, set, count, room, want)
		}
		if wantOK := count <= want; ok != wantOK {
			t.Fatalf("step %d: Admit(%v, %d) ok = %v, oracle room %d", step, set, count, ok, want)
		}
		if ok {
			admitted++
			if err := log.Append(logstore.Record{Set: set, Count: count}); err != nil {
				t.Fatal(err)
			}
			c.Confirm()
		} else {
			rejected++
		}
		if step%50 == 49 {
			res, err := c.Verify(ctx, log)
			if err != nil {
				t.Fatalf("step %d: Verify: %v", step, err)
			}
			if res.Skipped {
				t.Fatalf("step %d: Verify skipped with no pending admissions", step)
			}
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("sequence exercised only one outcome: admitted=%d rejected=%d", admitted, rejected)
	}
	if p := c.Pending(); p != 0 {
		t.Fatalf("pending = %d after confirmed sequence", p)
	}
}

// TestSpanGrowth admits sets that keep introducing unobserved licenses
// and checks the span grows without losing exactness.
func TestSpanGrowth(t *testing.T) {
	grouping := overlap.Grouping{N: 6, Groups: []overlap.Group{
		{Members: bitset.FullMask(6), Size: 6},
	}}
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t)
	c, err := headroom.Build(context.Background(), grouping, aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	steps := []bitset.Mask{
		bitset.MaskOf(0), bitset.MaskOf(1, 2), bitset.MaskOf(0, 3),
		bitset.MaskOf(4), bitset.MaskOf(2, 5),
	}
	lastSpan := 0
	for i, set := range steps {
		want := oracleRoom(t, 6, log, aggs, set)
		room, ok, err := c.Admit(ctx, set, 10)
		if err != nil || !ok {
			t.Fatalf("step %d Admit(%v): ok=%v err=%v", i, set, ok, err)
		}
		if room != want {
			t.Fatalf("step %d: room = %d, oracle %d", i, room, want)
		}
		if err := log.Append(logstore.Record{Set: set, Count: 10}); err != nil {
			t.Fatal(err)
		}
		c.Confirm()
		sum := c.Summaries()[0]
		if sum.SpanBits < lastSpan {
			t.Fatalf("step %d: span shrank %d → %d", i, lastSpan, sum.SpanBits)
		}
		lastSpan = sum.SpanBits
	}
	if lastSpan != 6 {
		t.Fatalf("final span = %d, want 6", lastSpan)
	}
	if _, err := c.Verify(ctx, log); err != nil {
		t.Fatalf("Verify after growth: %v", err)
	}
}

// wideSet returns the 24-license set missing only the given licenses.
// Observed sets this wide keep the oracle's superset walk at 2^|missing|
// equations while their union spans all 24 licenses.
func wideSet(missing ...int) bitset.Mask {
	return bitset.FullMask(24).Diff(bitset.MaskOf(missing...))
}

// TestSparseMode checks a group whose observed span (24 licenses) is
// past what a dense 2^span slack table could hold — the shape that once
// needed a separate sparse fallback — against the tree walk, before and
// after draining one set's headroom.
func TestSparseMode(t *testing.T) {
	grouping := overlap.Grouping{N: 24, Groups: []overlap.Group{
		{Members: bitset.FullMask(24), Size: 24},
	}}
	aggs := make([]int64, 24)
	for i := range aggs {
		aggs[i] = int64(10 + 7*i%23)
	}
	log := memLog(t,
		logstore.Record{Set: wideSet(0, 1, 2, 3, 4, 5, 6, 7), Count: 90},
		logstore.Record{Set: wideSet(16, 17, 18, 19, 20, 21, 22, 23), Count: 60},
		logstore.Record{Set: wideSet(3, 5, 8, 13, 21, 22), Count: 110},
		logstore.Record{Set: wideSet(0, 9, 10, 11, 12), Count: 40},
	)
	c, err := headroom.Build(context.Background(), grouping, aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	if bits := c.Summaries()[0].SpanBits; bits != 24 {
		t.Fatalf("span = %d bits, want 24", bits)
	}
	queries := []bitset.Mask{
		wideSet(0, 1, 2, 3, 4, 5, 6, 7), wideSet(3, 5, 8, 13, 21, 22),
		wideSet(0, 9, 10, 11, 12), wideSet(1, 2, 4, 6, 14, 15, 16, 17, 18),
		bitset.FullMask(24),
	}
	for _, s := range queries {
		room, err := c.Headroom(s)
		if err != nil {
			t.Fatalf("Headroom(%v): %v", s, err)
		}
		if want := oracleRoom(t, 24, log, aggs, s); room != want {
			t.Errorf("Headroom(%v) = %d, oracle %d", s, room, want)
		}
	}
	ctx := context.Background()
	set := wideSet(0, 9, 10, 11, 12)
	want := oracleRoom(t, 24, log, aggs, set)
	room, ok, err := c.Admit(ctx, set, want)
	if err != nil || !ok || room != want {
		t.Fatalf("Admit: room=%d ok=%v err=%v, want room=%d ok", room, ok, err, want)
	}
	if err := log.Append(logstore.Record{Set: set, Count: want}); err != nil {
		t.Fatal(err)
	}
	c.Confirm()
	if _, ok, _ := c.Admit(ctx, set, 1); ok {
		t.Fatal("admission above exhausted budget accepted")
	}
	for _, s := range queries {
		room, _ := c.Headroom(s)
		if want := oracleRoom(t, 24, log, aggs, s); room != want {
			t.Errorf("drained Headroom(%v) = %d, oracle %d", s, room, want)
		}
	}
	if _, err := c.Verify(ctx, log); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestSpanOverflowDuringAdmit grows a group's span past 20 licenses at
// admission time — where the dense table once overflowed — and checks
// every admission and the final headrooms stay exact.
func TestSpanOverflowDuringAdmit(t *testing.T) {
	grouping := overlap.Grouping{N: 24, Groups: []overlap.Group{
		{Members: bitset.FullMask(24), Size: 24},
	}}
	aggs := make([]int64, 24)
	for i := range aggs {
		aggs[i] = 50 + int64(i)
	}
	log := memLog(t)
	c, err := headroom.Build(context.Background(), grouping, aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var low, high bitset.Mask
	for i := 0; i < 12; i++ {
		low, high = low.With(i), high.With(12+i)
	}
	steps := []bitset.Mask{low, high.Without(23).Without(22), high, wideSet(0, 1, 2, 12, 13, 14, 15)}
	for i, set := range steps {
		want := oracleRoom(t, 24, log, aggs, set)
		room, ok, err := c.Admit(ctx, set, 5)
		if err != nil || !ok || room != want {
			t.Fatalf("step %d Admit(%v): room=%d ok=%v err=%v, oracle %d", i, set, room, ok, err, want)
		}
		if err := log.Append(logstore.Record{Set: set, Count: 5}); err != nil {
			t.Fatal(err)
		}
		c.Confirm()
	}
	if bits := c.Summaries()[0].SpanBits; bits != 24 {
		t.Fatalf("span = %d bits after growth, want 24", bits)
	}
	for _, s := range append(steps, wideSet(5, 17, 20), low.With(12)) {
		room, err := c.Headroom(s)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleRoom(t, 24, log, aggs, s); room != want {
			t.Errorf("post-growth Headroom(%v) = %d, oracle %d", s, room, want)
		}
	}
	if _, err := c.Verify(ctx, log); err != nil {
		t.Fatalf("Verify after growth: %v", err)
	}
}

func TestTopUp(t *testing.T) {
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t,
		logstore.Record{Set: bitset.MaskOf(0, 1), Count: 90},
		logstore.Record{Set: bitset.MaskOf(4), Count: 95},
	)
	c, err := headroom.Build(context.Background(), grouping2(), aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.TopUp(1, 50); err != nil {
		t.Fatal(err)
	}
	aggs[1] += 50
	if err := c.TopUp(5, 25); err != nil { // outside any observed span
		t.Fatal(err)
	}
	aggs[5] += 25
	for s := bitset.Mask(1); s < 1<<6; s++ {
		if _, err := c.Headroom(s); err != nil {
			// Cross-group sets are invalid by construction; skip them.
			continue
		}
		room, _ := c.Headroom(s)
		if want := oracleRoom(t, 6, log, aggs, s); room != want {
			t.Errorf("post-topup Headroom(%v) = %d, oracle %d", s, room, want)
		}
	}
	if err := c.TopUp(9, 5); err == nil {
		t.Fatal("TopUp outside corpus succeeded")
	}
	if err := c.TopUp(0, 0); err == nil {
		t.Fatal("non-positive TopUp succeeded")
	}
}

// TestRelease rolls back an admitted-but-unlogged reservation and checks
// the cache returns to the exact pre-admission state, including a span
// that must shrink back.
func TestRelease(t *testing.T) {
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t, logstore.Record{Set: bitset.MaskOf(0), Count: 10})
	c, err := headroom.Build(context.Background(), grouping2(), aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The admitted set introduces licenses 1 and 2 into the span; the
	// failed append must roll that back too.
	set := bitset.MaskOf(1, 2)
	if _, ok, err := c.Admit(ctx, set, 30); err != nil || !ok {
		t.Fatalf("Admit: ok=%v err=%v", ok, err)
	}
	if p := c.Pending(); p != 1 {
		t.Fatalf("pending = %d after Admit, want 1", p)
	}
	if err := c.Release(set, 30); err != nil {
		t.Fatal(err)
	}
	if p := c.Pending(); p != 0 {
		t.Fatalf("pending = %d after Release, want 0", p)
	}
	if _, err := c.Verify(ctx, log); err != nil {
		t.Fatalf("Verify after Release: %v", err)
	}
	room, err := c.Headroom(bitset.MaskOf(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleRoom(t, 6, log, aggs, bitset.MaskOf(1)); room != want {
		t.Fatalf("post-release Headroom = %d, oracle %d", room, want)
	}
}

func TestVerifyDetectsDivergence(t *testing.T) {
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t, logstore.Record{Set: bitset.MaskOf(0, 1), Count: 10})
	c, err := headroom.Build(context.Background(), grouping2(), aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if res, err := c.Verify(ctx, log); err != nil || res.Skipped || res.Entries == 0 {
		t.Fatalf("clean Verify: res=%+v err=%v", res, err)
	}
	// A record appended behind the cache's back is exactly the corruption
	// Verify exists to catch.
	if err := log.Append(logstore.Record{Set: bitset.MaskOf(0), Count: 5}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Verify(ctx, log)
	if err == nil {
		t.Fatal("Verify missed a log record the cache never saw")
	}
	if !errors.Is(err, headroom.ErrDivergence) || !errors.Is(err, drmerr.ErrHeadroomDiverge) {
		t.Fatalf("divergence error %v does not match the sentinels", err)
	}
	if drmerr.KindOf(err) != drmerr.KindHeadroomDivergence {
		t.Fatalf("divergence kind = %v", drmerr.KindOf(err))
	}
}

func TestVerifySkipsWithPendingAdmissions(t *testing.T) {
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t)
	c, err := headroom.Build(context.Background(), grouping2(), aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, ok, err := c.Admit(ctx, bitset.MaskOf(3), 5); err != nil || !ok {
		t.Fatalf("Admit: ok=%v err=%v", ok, err)
	}
	res, err := c.Verify(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Skipped || res.Pending != 1 {
		t.Fatalf("Verify with in-flight admission: res=%+v, want skipped with pending=1", res)
	}
}

func TestCrossGroupRecordFailsBuild(t *testing.T) {
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t, logstore.Record{Set: bitset.MaskOf(1, 3), Count: 5})
	_, err := headroom.Build(context.Background(), grouping2(), aggs, log)
	if err == nil {
		t.Fatal("cross-group record accepted")
	}
	if drmerr.KindOf(err) != drmerr.KindCrossGroup {
		t.Fatalf("kind = %v, want cross_group", drmerr.KindOf(err))
	}
}

func TestAdmitInputValidation(t *testing.T) {
	aggs := []int64{100, 100, 100, 100, 100, 100}
	c, err := headroom.Build(context.Background(), grouping2(), aggs, memLog(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		set   bitset.Mask
		count int64
		kind  drmerr.Kind
	}{
		{0, 5, drmerr.KindInvalidInput},
		{bitset.MaskOf(0), 0, drmerr.KindInvalidInput},
		{bitset.MaskOf(0), -3, drmerr.KindInvalidInput},
		{bitset.MaskOf(7), 5, drmerr.KindCorpusMismatch},
		{bitset.MaskOf(1, 4), 5, drmerr.KindCrossGroup},
	}
	for _, tc := range cases {
		_, ok, err := c.Admit(ctx, tc.set, tc.count)
		if ok || err == nil {
			t.Fatalf("Admit(%v, %d) = ok=%v err=%v, want typed error", tc.set, tc.count, ok, err)
		}
		if drmerr.KindOf(err) != tc.kind {
			t.Errorf("Admit(%v, %d) kind = %v, want %v", tc.set, tc.count, drmerr.KindOf(err), tc.kind)
		}
	}
	if p := c.Pending(); p != 0 {
		t.Fatalf("rejected inputs left pending = %d", p)
	}
}

// TestRebuildAfterRegrouping re-routes retained counts under a coarser
// grouping (two groups merged into one) without replaying any log.
func TestRebuildAfterRegrouping(t *testing.T) {
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t,
		logstore.Record{Set: bitset.MaskOf(0, 1), Count: 40},
		logstore.Record{Set: bitset.MaskOf(3, 4), Count: 70},
	)
	c, err := headroom.Build(context.Background(), grouping2(), aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	merged := overlap.Grouping{N: 6, Groups: []overlap.Group{
		{Members: bitset.FullMask(6), Size: 6},
	}}
	if err := c.Rebuild(context.Background(), merged, aggs); err != nil {
		t.Fatal(err)
	}
	// Under one group, formerly cross-group sets become valid.
	for _, set := range []bitset.Mask{bitset.MaskOf(1, 4), bitset.MaskOf(0), bitset.MaskOf(3)} {
		room, err := c.Headroom(set)
		if err != nil {
			t.Fatalf("Headroom(%v) after rebuild: %v", set, err)
		}
		if want := oracleRoom(t, 6, log, aggs, set); room != want {
			t.Errorf("rebuilt Headroom(%v) = %d, oracle %d", set, room, want)
		}
	}
	if _, err := c.Verify(context.Background(), log); err != nil {
		t.Fatalf("Verify after rebuild: %v", err)
	}
}
