package vtree

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/obs"
)

// metricsFixture builds a 12-license flat tree with a few hundred records.
func metricsFixture(tb testing.TB) (*FlatTree, []int64) {
	tb.Helper()
	const n = 12
	r := rand.New(rand.NewSource(7))
	t := mustNew(n)
	for i := 0; i < 300; i++ {
		set := bitset.Mask(r.Int63()) & bitset.FullMask(n)
		if set.Empty() {
			set = bitset.MaskOf(r.Intn(n))
		}
		if err := t.Insert(set, int64(1+r.Intn(20))); err != nil {
			tb.Fatal(err)
		}
	}
	a := make([]int64, n)
	for i := range a {
		a[i] = int64(100000) // generous budgets: violation-free run
	}
	return t.Flatten(), a
}

// TestValidateAllocsEqualWithNilAndLiveHooks is the acceptance gate for
// the hook design: the serial validate hot path must allocate exactly the
// same with hooks nil (uninstrumented) as with a live registry — i.e. the
// instrumentation adds zero allocations, because recording is atomic-only
// and happens once per run.
func TestValidateAllocsEqualWithNilAndLiveHooks(t *testing.T) {
	f, a := metricsFixture(t)
	run := func() {
		if _, err := f.ValidateAllSharded(a, 1); err != nil {
			t.Fatal(err)
		}
	}
	M = Metrics{} // hooks nil
	base := testing.AllocsPerRun(20, run)

	reg := obs.NewRegistry()
	Instrument(reg)
	defer func() { M = Metrics{} }()
	live := testing.AllocsPerRun(20, run)

	if live != base {
		t.Errorf("allocs per run: nil hooks %v, live hooks %v — instrumentation must add zero", base, live)
	}
}

// TestShardCountMatchesValidate pins the exported ShardCount against the
// fan-out ValidateAllSharded actually uses (observed via the shard
// counter).
func TestShardCountMatchesValidate(t *testing.T) {
	f, a := metricsFixture(t)
	reg := obs.NewRegistry()
	Instrument(reg)
	defer func() { M = Metrics{} }()
	for _, workers := range []int{1, 2, 3, 4, 7, 16, 1 << 20} {
		before := M.Shards.Value()
		if _, err := f.ValidateAllSharded(a, workers); err != nil {
			t.Fatal(err)
		}
		got := M.Shards.Value() - before
		if want := int64(ShardCount(f.n, workers)); got != want {
			t.Errorf("workers=%d: observed %d shards, ShardCount says %d", workers, got, want)
		}
	}
}

// TestInstrumentedValidateCounters checks one sharded run records one
// observation and the full equation count.
func TestInstrumentedValidateCounters(t *testing.T) {
	f, a := metricsFixture(t)
	reg := obs.NewRegistry()
	Instrument(reg)
	defer func() { M = Metrics{} }()
	res, err := f.ValidateAllSharded(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := M.ValidateRuns.Value(); got != 1 {
		t.Errorf("validate runs = %d, want 1", got)
	}
	if got := M.ValidateSeconds.Count(); got != 1 {
		t.Errorf("validate seconds observations = %d, want 1", got)
	}
	if got := M.EquationsChecked.Value(); got != res.Equations {
		t.Errorf("equations counter = %d, report says %d", got, res.Equations)
	}
}

// BenchmarkValidateInstrumented quantifies the instrumentation overhead
// the acceptance criteria bound at 5%: compare against the hooks-nil
// sub-benchmark (the BenchmarkAblationIntraGroup shape at package level).
func BenchmarkValidateInstrumented(b *testing.B) {
	f, a := metricsFixture(b)
	b.Run("nil-hooks", func(b *testing.B) {
		M = Metrics{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.ValidateAllSharded(a, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("live-hooks", func(b *testing.B) {
		reg := obs.NewRegistry()
		Instrument(reg)
		defer func() { M = Metrics{} }()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.ValidateAllSharded(a, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}
