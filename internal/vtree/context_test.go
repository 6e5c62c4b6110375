package vtree

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/drmerr"
)

func TestShardedContextCancelledScansNothing(t *testing.T) {
	// An already-cancelled context must be noticed at shard entry: zero
	// masks scanned, no violations, a KindCancelled error — and the same
	// snapshot revalidates identically under a fresh context.
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed + 500))
		n := 4 + r.Intn(10)
		tree, err := BuildRecords(n, randomRecords(t, n, 200, seed))
		if err != nil {
			t.Fatal(err)
		}
		a := make([]int64, n)
		for i := range a {
			a[i] = int64(r.Intn(2000))
		}
		f := tree.Flatten()

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := f.ValidateAllShardedContext(ctx, a, 4)
		if !errors.Is(err, drmerr.ErrCancelled) {
			t.Fatalf("seed %d: err = %v, want ErrCancelled", seed, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("seed %d: context cause lost: %v", seed, err)
		}
		if res.Equations != 0 || len(res.Violations) != 0 {
			t.Errorf("seed %d: cancelled run scanned %d masks, %d violations; want 0, 0",
				seed, res.Equations, len(res.Violations))
		}

		want, err := tree.ValidateAll(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.ValidateAllShardedContext(context.Background(), a, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got.Equations != want.Equations || !violationsEqual(got.Violations, want.Violations) {
			t.Errorf("seed %d: post-cancel revalidation diverges: got %+v want %+v", seed, got, want)
		}
	}
}

func TestShardedContextMidRunDeadlineIsSound(t *testing.T) {
	// A deadline that may fire mid-walk must never manufacture a
	// violation: whatever subset of masks was scanned, every reported
	// violation also appears in the full run.
	n := 18
	tree, err := BuildRecords(n, randomRecords(t, n, 400, 7))
	if err != nil {
		t.Fatal(err)
	}
	a := make([]int64, n)
	for i := range a {
		a[i] = int64(100 * (i + 1)) // tight: the full run has violations
	}
	f := tree.Flatten()
	want, err := f.ValidateAllSharded(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	fullBySet := map[bitset.Mask]Violation{}
	for _, v := range want.Violations {
		fullBySet[v.Set] = v
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Microsecond)
	defer cancel()
	res, rerr := f.ValidateAllShardedContext(ctx, a, 1)
	if rerr == nil {
		t.Skip("walk finished before the deadline; nothing to check")
	}
	if drmerr.KindOf(rerr) != drmerr.KindCancelled {
		t.Fatalf("err = %v, want KindCancelled", rerr)
	}
	if res.Equations >= want.Equations {
		t.Errorf("cut-short run claims %d masks of %d", res.Equations, want.Equations)
	}
	for _, v := range res.Violations {
		w, ok := fullBySet[v.Set]
		if !ok || !reflect.DeepEqual(v, w) {
			t.Errorf("spurious violation %+v in cut-short run", v)
		}
	}
}

func TestShardedContextTypedArgErrors(t *testing.T) {
	tree := mustNew(3)
	if err := tree.Insert(bitset.MaskOf(0), 1); err != nil {
		t.Fatal(err)
	}
	f := tree.Flatten()
	if _, err := f.ValidateAllShardedContext(context.Background(), []int64{1, 2}, 1); !errors.Is(err, drmerr.ErrCorpusMismatch) {
		t.Errorf("short aggregates err = %v, want ErrCorpusMismatch", err)
	}
	if _, err := f.ValidateAllShardedContext(context.Background(), []int64{1, 2, 3}, 0); !errors.Is(err, drmerr.ErrInvalidInput) {
		t.Errorf("zero workers err = %v, want ErrInvalidInput", err)
	}
}
