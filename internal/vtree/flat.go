package vtree

import (
	"context"
	"math/bits"
	"sort"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/trace"
)

// FlatTree is an immutable structure-of-arrays snapshot of a Tree, built
// once per audit by Flatten. The pointer tree is the right shape for
// incremental inserts (Algorithm 1), but evaluating 2^{N_k}−1 equations
// against it chases one heap pointer per visited node; the flat layout
// stores the same prefix tree as four parallel slices, so the pruned
// SumSubsets walk touches contiguous cache lines instead.
//
// Layout: nodes are numbered in breadth-first order with the root sentinel
// at slot 0 (label −1, count 0). The children of node i occupy the
// contiguous index range [childStart[i], childEnd[i]) and appear in
// ascending label order — the invariant the pruned walk's early break
// relies on, inherited directly from Node.Children ordering.
type FlatTree struct {
	n          int
	label      []int32
	count      []int64
	childStart []int32
	childEnd   []int32
}

// Flatten snapshots the tree into its structure-of-arrays form. The
// snapshot is immutable and safe for concurrent readers; later Inserts
// into t are not reflected (flatten again after mutating).
func (t *Tree) Flatten() *FlatTree {
	start := time.Now()
	total := 1
	var countNodes func(n *Node)
	countNodes = func(n *Node) {
		total += len(n.Children)
		for _, c := range n.Children {
			countNodes(c)
		}
	}
	countNodes(t.root)

	f := &FlatTree{
		n:          t.n,
		label:      make([]int32, total),
		count:      make([]int64, total),
		childStart: make([]int32, total),
		childEnd:   make([]int32, total),
	}
	f.label[0] = -1
	queue := make([]*Node, 1, total)
	queue[0] = t.root
	next := int32(1)
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		idx := int32(head)
		f.count[idx] = n.C
		f.childStart[idx] = next
		for _, c := range n.Children {
			f.label[next] = int32(c.L)
			queue = append(queue, c)
			next++
		}
		f.childEnd[idx] = next
	}
	M.Flattens.Inc()
	M.FlattenSeconds.ObserveSince(start)
	return f
}

// SumSubsets returns C⟨S⟩ exactly like Tree.SumSubsets, walking the flat
// arrays instead of the pointer graph. Results are bit-identical: both
// walks sum the same node counts, and int64 addition is order-insensitive.
func (f *FlatTree) SumSubsets(s bitset.Mask) int64 {
	if s.Empty() {
		return 0
	}
	return f.sumSubsets(0, uint64(s), int32(s.Max()))
}

func (f *FlatTree) sumSubsets(idx int32, s uint64, maxElem int32) int64 {
	var total int64
	for i := f.childStart[idx]; i < f.childEnd[idx]; i++ {
		l := f.label[i]
		if l > maxElem {
			break
		}
		if s&(1<<uint(l)) == 0 {
			continue
		}
		total += f.count[i]
		if f.childStart[i] < f.childEnd[i] {
			total += f.sumSubsets(i, s, maxElem)
		}
	}
	return total
}

// ctxPollMasks is how many masks a shard walker evaluates between
// context polls. Polling per mask would put a branch-plus-atomic-load in
// the innermost loop; every 4096 masks bounds cancellation latency to a
// few milliseconds of equation work while keeping the amortised overhead
// unmeasurable (the ablation benchmark budgets ≤2%).
const ctxPollMasks = 4096

// ShardCount returns the number of contiguous mask shards a sharded
// validation over n licenses fans out to under the given worker budget:
// the smallest power of two >= workers, capped at 2^n so every shard
// spans at least one mask. ValidateAllSharded uses exactly this count,
// and audit run-stats reuse it to report shards without re-running.
func ShardCount(n, workers int) int {
	if workers < 1 {
		workers = 1
	}
	shardBits := bits.Len(uint(workers - 1))
	if shardBits > n {
		shardBits = n
	}
	return 1 << uint(shardBits)
}

// ValidateAllSharded evaluates all 2^N−1 validation equations with the
// subset space partitioned across workers. The mask range [1, 2^N) is
// split by the top ⌈log₂ workers⌉ bits into equal contiguous shards, so
// each worker enumerates its own mask interval with zero coordination:
// no shared counters, no channel per equation, one violation buffer per
// shard merged and sorted at the end.
//
// Within a shard the RHS A[S] is maintained incrementally: stepping from
// mask m to m+1 clears m's trailing ones and sets one higher bit, so the
// running aggregate sum is patched from that delta instead of re-summed
// with a full bit iteration per equation — amortised O(1) budget updates
// across the 2^N sweep.
//
// The report is identical to ValidateAll's on the same snapshot: same
// equation count, same violations in ascending set order.
func (f *FlatTree) ValidateAllSharded(a []int64, workers int) (Result, error) {
	return f.ValidateAllShardedContext(context.Background(), a, workers)
}

// ValidateAllShardedContext is ValidateAllSharded under a context. Shard
// walkers poll ctx every ctxPollMasks masks; on cancellation or deadline
// expiry the partial Result — every equation evaluated so far, with any
// violations found — is returned together with a KindCancelled error
// wrapping ctx.Err(). Partial results are sound but incomplete: reported
// violations are real, Equations counts exactly the masks scanned.
func (f *FlatTree) ValidateAllShardedContext(ctx context.Context, a []int64, workers int) (Result, error) {
	if len(a) != f.n {
		return Result{}, drmerr.New(drmerr.KindCorpusMismatch, "vtree.validate",
			"vtree: aggregate array has %d entries, want %d", len(a), f.n)
	}
	if workers < 1 {
		return Result{}, drmerr.New(drmerr.KindInvalidInput, "vtree.validate",
			"vtree: workers = %d, want >= 1", workers)
	}
	if f.n == 0 {
		return Result{}, nil
	}
	start := time.Now()

	shards := ShardCount(f.n, workers)
	width := uint(f.n - bits.Len(uint(shards-1))) // masks per shard = 2^width

	results := make([]Result, shards)
	errs := make([]error, shards)
	if shards == 1 {
		sctx, sp := trace.Start(ctx, "vtree.shard")
		results[0], errs[0] = f.validateRange(sctx, a, 1, uint64(bitset.FullMask(f.n)))
		if sp != nil {
			sp.SetInt("shard", 0)
			sp.SetInt("equations", results[0].Equations)
			sp.Fail(errs[0])
			sp.End()
		}
	} else {
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			first := uint64(s) << width
			last := first | (uint64(1)<<width - 1)
			if first == 0 {
				first = 1 // the empty set is not an equation
			}
			if first > last {
				continue // shard 0 spanned only the empty set
			}
			wg.Add(1)
			go func(s int, first, last uint64) {
				defer wg.Done()
				sctx, sp := trace.Start(ctx, "vtree.shard")
				results[s], errs[s] = f.validateRange(sctx, a, first, last)
				if sp != nil {
					sp.SetInt("shard", int64(s))
					sp.SetInt("equations", results[s].Equations)
					sp.Fail(errs[s])
					sp.End()
				}
			}(s, first, last)
		}
		wg.Wait()
	}

	var res Result
	var cut error
	for s, r := range results {
		res.Equations += r.Equations
		res.Violations = append(res.Violations, r.Violations...)
		if errs[s] != nil && cut == nil {
			cut = errs[s]
		}
	}
	// Shards cover ascending mask intervals and emit violations in mask
	// order, so the concatenation is already sorted; sort anyway to keep
	// the merge's contract independent of the shard layout.
	sort.Slice(res.Violations, func(i, j int) bool {
		return res.Violations[i].Set < res.Violations[j].Set
	})
	M.ValidateRuns.Inc()
	M.ValidateSeconds.ObserveSince(start)
	M.EquationsChecked.Add(res.Equations)
	M.Violations.Add(int64(len(res.Violations)))
	M.Shards.Add(int64(shards))
	return res, cut
}

// validateRange evaluates the equations for masks [first, last], both
// inclusive, with an incrementally maintained RHS. It polls ctx every
// ctxPollMasks masks and returns the partial result with a cancellation
// error when the context fires.
func (f *FlatTree) validateRange(ctx context.Context, a []int64, first, last uint64) (Result, error) {
	var res Result
	// Seed the running aggregate for the first mask with one direct sum.
	var av int64
	for w := first; w != 0; w &= w - 1 {
		av += a[bits.TrailingZeros64(w)]
	}
	poll := first // poll at entry, then every ctxPollMasks masks
	for m := first; ; m++ {
		if m >= poll {
			if err := ctx.Err(); err != nil {
				return res, drmerr.Wrap(drmerr.KindCancelled, "vtree.validate", err)
			}
			poll = m + ctxPollMasks
		}
		cv := f.sumSubsets(0, m, int32(63-bits.LeadingZeros64(m)))
		res.Equations++
		if cv > av {
			res.Violations = append(res.Violations, Violation{Set: bitset.Mask(m), CV: cv, AV: av})
		}
		if m == last {
			return res, nil
		}
		// m → m+1 clears the trailing ones and sets the next bit up.
		next := m + 1
		for w := m &^ next; w != 0; w &= w - 1 {
			av -= a[bits.TrailingZeros64(w)]
		}
		av += a[bits.TrailingZeros64(next&^m)]
	}
}
