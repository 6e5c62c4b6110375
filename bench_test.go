// Top-level benchmarks regenerate every figure of the paper's evaluation
// (§5) as testing.B benchmarks, plus the ablations DESIGN.md calls out.
// Run them all with:
//
//	go test -bench=. -benchmem .
//
// Figure mapping:
//
//	BenchmarkFig6Groups      — fig 6 (groups vs N; groups reported as a metric)
//	BenchmarkFig7Original    — fig 7, undivided validator V_T
//	BenchmarkFig7Geometric   — fig 7, proposed validator V_T (and V_T+D_T via sub-bench)
//	BenchmarkFig8Gain        — fig 8 (theoretical gain reported as a metric)
//	BenchmarkFig9Insert      — fig 9, single-record insertion
//	BenchmarkFig9Division    — fig 9, one-time division D_T
//	BenchmarkFig10Storage    — fig 10 (bytes reported as metrics)
//
// Ablations:
//
//	BenchmarkAblationTraversal     — validation-tree pruned walk vs direct log
//	                                 scan vs sum-over-subsets DP
//	BenchmarkAblationParallel      — serial vs parallel per-group validation
//	BenchmarkAblationIntraGroup    — mask-sharded single-group validation
//	BenchmarkAblationFlatSumSubsets — pointer tree vs flattened SoA layout
//	BenchmarkAblationGrouping      — Algorithm 3 DFS vs incremental union-find
package drm_test

import (
	"context"
	"fmt"
	"testing"

	"math/rand"
	"repro/internal/baseline"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/headroom"
	"repro/internal/interval"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/overlap"
	"repro/internal/rtree"
	"repro/internal/vtree"
	"repro/internal/workload"
)

// benchWorkload memoises generated workloads across benchmarks.
var benchWorkloads = map[int]*workload.Workload{}

func benchWorkload(b *testing.B, n int) *workload.Workload {
	b.Helper()
	if w, ok := benchWorkloads[n]; ok {
		return w
	}
	cfg := workload.Default(n)
	w, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchWorkloads[n] = w
	return w
}

func benchTree(b *testing.B, w *workload.Workload) *vtree.Tree {
	b.Helper()
	t, err := vtree.BuildRecords(w.Corpus.Len(), w.Records)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func benchDivided(b *testing.B, w *workload.Workload) ([]*core.GroupTree, overlap.Grouping) {
	b.Helper()
	gr := overlap.GroupsOf(w.Corpus)
	trees, err := core.Divide(benchTree(b, w).Clone(), gr, w.Corpus.Aggregates())
	if err != nil {
		b.Fatal(err)
	}
	return trees, gr
}

// fig7Ns are the sweep points benchmarked per figure; the full 1..35 sweep
// lives in cmd/drmbench.
var fig7OriginalNs = []int{8, 12, 16, 20}
var fig7GeometricNs = []int{8, 12, 16, 20, 28, 35}

func BenchmarkFig6Groups(b *testing.B) {
	for _, n := range []int{5, 15, 25, 35} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := benchWorkload(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			var groups int
			for i := 0; i < b.N; i++ {
				groups = overlap.GroupsOf(w.Corpus).NumGroups()
			}
			b.ReportMetric(float64(groups), "groups")
		})
	}
}

func BenchmarkFig7Original(b *testing.B) {
	for _, n := range fig7OriginalNs {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := benchWorkload(b, n)
			tree := benchTree(b, w)
			agg := w.Corpus.Aggregates()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.ValidateAll(agg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig7Geometric(b *testing.B) {
	for _, n := range fig7GeometricNs {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := benchWorkload(b, n)
			trees, _ := benchDivided(b, w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Validate(trees); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7GeometricWithDivision times V_T + D_T: grouping, division,
// and validation together, on a pre-built tree clone.
func BenchmarkFig7GeometricWithDivision(b *testing.B) {
	for _, n := range []int{12, 20, 28, 35} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := benchWorkload(b, n)
			tree := benchTree(b, w)
			agg := w.Corpus.Aggregates()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				clone := tree.Clone() // excluded: division consumes the tree
				b.StartTimer()
				gr := overlap.GroupsOf(w.Corpus)
				trees, err := core.Divide(clone, gr, agg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Validate(trees); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig8Gain(b *testing.B) {
	for _, n := range []int{10, 20, 35} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := benchWorkload(b, n)
			gr := overlap.GroupsOf(w.Corpus)
			b.ResetTimer()
			var gain float64
			for i := 0; i < b.N; i++ {
				gain = core.Gain(gr)
			}
			b.ReportMetric(gain, "gain")
		})
	}
}

func BenchmarkFig9Insert(b *testing.B) {
	for _, n := range []int{10, 20, 35} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := benchWorkload(b, n)
			tree := benchTree(b, w)
			recs := w.Records
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

func BenchmarkFig9Division(b *testing.B) {
	for _, n := range []int{10, 20, 35} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := benchWorkload(b, n)
			tree := benchTree(b, w)
			gr := overlap.GroupsOf(w.Corpus)
			agg := w.Corpus.Aggregates()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				clone := tree.Clone()
				b.StartTimer()
				if _, err := core.Divide(clone, gr, agg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig10Storage(b *testing.B) {
	for _, n := range []int{10, 20, 35} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := benchWorkload(b, n)
			trees, _ := benchDivided(b, w)
			original := benchTree(b, w)
			b.ResetTimer()
			var origBytes, divBytes int64
			for i := 0; i < b.N; i++ {
				origBytes = original.Stats().Bytes
				divBytes = 0
				for _, gt := range trees {
					divBytes += gt.Tree.Stats().Bytes
				}
			}
			b.ReportMetric(float64(origBytes), "orig-bytes")
			b.ReportMetric(float64(divBytes), "divided-bytes")
		})
	}
}

// BenchmarkAblationTraversal compares the three ways to evaluate all
// validation equations at N=16: the [10] validation tree, a direct
// per-equation log scan, and the sum-over-subsets DP.
func BenchmarkAblationTraversal(b *testing.B) {
	const n = 16
	w := benchWorkload(b, n)
	agg := w.Corpus.Aggregates()
	b.Run("tree", func(b *testing.B) {
		tree := benchTree(b, w)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tree.ValidateAll(agg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-scan", func(b *testing.B) {
		recs := logstore.Compact(w.Records) // give the scan its best case
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.DirectValidate(n, recs, agg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sos-dp", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.SOSValidate(n, w.Records, agg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationParallel compares serial and parallel per-group
// validation at N=35 (5 groups of 7).
func BenchmarkAblationParallel(b *testing.B) {
	cfg := workload.Default(35)
	cfg.Groups = 5
	w, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gr := overlap.GroupsOf(w.Corpus)
	trees, err := core.Divide(benchTree(b, w).Clone(), gr, w.Corpus.Aggregates())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Validate(trees); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ValidateParallel(trees, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationIntraGroup measures intra-group sharded validation on a
// single-group corpus — the regime where per-group parallelism (above) is
// useless because there is nothing to fan out over. The mask space of the
// one group's 2^N−1 equations is split into contiguous shards across
// workers; the report is byte-identical at every setting (asserted by the
// property tests in internal/core). Speed-ups materialise only with real
// cores: on a single-CPU machine all worker counts time alike.
func BenchmarkAblationIntraGroup(b *testing.B) {
	ns := []int{20, 22, 24, 26}
	if testing.Short() {
		ns = []int{20}
	}
	for _, n := range ns {
		cfg := workload.Default(n)
		cfg.Groups = 1
		cfg.RecordsPerLicense = 50 // the cost under study is per-equation, not replay
		w, err := workload.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		trees, err := core.Divide(benchTree(b, w).Clone(), overlap.GroupsOf(w.Corpus), w.Corpus.Aggregates())
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("N=%d/workers=%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.ValidateParallel(trees, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationIntraGroupInstrumented reruns the intra-group ablation
// with a live metrics registry wired into vtree/core, quantifying the
// observability overhead. Recording happens once per run (never per
// equation), so the instrumented/uninstrumented delta should sit well
// under the 5% the design budgets.
func BenchmarkAblationIntraGroupInstrumented(b *testing.B) {
	n := 20
	cfg := workload.Default(n)
	cfg.Groups = 1
	cfg.RecordsPerLicense = 50
	w, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	trees, err := core.Divide(benchTree(b, w).Clone(), overlap.GroupsOf(w.Corpus), w.Corpus.Aggregates())
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []struct {
		name string
		wire func()
	}{
		{"nil-hooks", func() { vtree.M, core.M = vtree.Metrics{}, core.Metrics{} }},
		{"instrumented", func() {
			reg := obs.NewRegistry()
			vtree.Instrument(reg)
			core.Instrument(reg)
		}},
	} {
		variant.wire()
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", variant.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.ValidateParallel(trees, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	vtree.M, core.M = vtree.Metrics{}, core.Metrics{}
}

// BenchmarkAblationFlatSumSubsets compares one C⟨S⟩ evaluation on the
// pointer tree against the flattened SoA layout backing the sharded
// validator (sums are bit-identical; only memory traversal differs).
func BenchmarkAblationFlatSumSubsets(b *testing.B) {
	w := benchWorkload(b, 20)
	tree := benchTree(b, w)
	flat := tree.Flatten()
	full := bitset.FullMask(20)
	b.Run("pointer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree.SumSubsets(full)
		}
	})
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			flat.SumSubsets(full)
		}
	})
}

// BenchmarkAblationGrouping compares the paper's O(N²) DFS grouping with
// the incremental union-find Grouper at N=35.
func BenchmarkAblationGrouping(b *testing.B) {
	w := benchWorkload(b, 35)
	b.Run("dfs-matrix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			overlap.GroupsOf(w.Corpus)
		}
	})
	b.Run("union-find", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			overlap.NewGrouper(w.Corpus).Grouping()
		}
	})
}

// BenchmarkAblationSkew compares validation cost on uniform vs Zipf-skewed
// issuance at N=20: skew concentrates the log on few belongs-to sets,
// shrinking the validation tree and the per-equation traversals.
func BenchmarkAblationSkew(b *testing.B) {
	for _, skew := range []float64{0, 1.5, 3.0} {
		name := "uniform"
		if skew > 0 {
			name = fmt.Sprintf("zipf-%.1f", skew)
		}
		b.Run(name, func(b *testing.B) {
			cfg := workload.Default(20)
			cfg.Skew = skew
			w, err := workload.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			gr := overlap.GroupsOf(w.Corpus)
			tree, err := vtree.BuildRecords(20, w.Records)
			if err != nil {
				b.Fatal(err)
			}
			trees, err := core.Divide(tree, gr, w.Corpus.Aggregates())
			if err != nil {
				b.Fatal(err)
			}
			var nodes int
			for _, gt := range trees {
				nodes += gt.Tree.Stats().Nodes
			}
			b.ReportMetric(float64(nodes), "tree-nodes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Validate(trees); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOnlineHeadroom compares per-issuance aggregate checking
// with and without grouping at N=20: the global check enumerates 2^(N−k)
// equations, the grouped one is the serving cache (headroom.Cache), which
// answers from the set's group alone with one min cut over its observed
// sets.
func BenchmarkAblationOnlineHeadroom(b *testing.B) {
	w := benchWorkload(b, 20)
	tree := benchTree(b, w)
	agg := w.Corpus.Aggregates()
	base := w.Records[0].Set

	b.Run("global", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tree.Headroom(base, agg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grouped", func(b *testing.B) {
		log := logstore.NewMem(0)
		for _, r := range w.Records {
			if err := log.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		cache, err := headroom.Build(context.Background(), overlap.GroupsOf(w.Corpus), agg, log)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cache.Headroom(base); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationInstanceValidation compares the two ways to answer
// "which licenses contain this issued rectangle" on a 4-interval-axis
// corpus: linear scan (Corpus.BelongsTo) and the R-tree over all axes.
// Corpus sizes beyond the paper's N ≤ 64 regime show where the index
// pays off — the multi-content catalogs internal/engine serves.
func BenchmarkAblationInstanceValidation(b *testing.B) {
	w := benchWorkload(b, 35)
	corpus := w.Corpus
	schema := corpus.Schema()

	rt := rtree.New(schema, rtree.DefaultMaxEntries)
	for i := 0; i < corpus.Len(); i++ {
		if err := rt.Insert(corpus.License(i).Rect, i); err != nil {
			b.Fatal(err)
		}
	}

	// Queries: shrunken rectangles inside random licenses (always hit).
	rng := rand.New(rand.NewSource(3))
	queries := make([]geometry.Rect, 128)
	for qi := range queries {
		l := corpus.License(rng.Intn(corpus.Len())).Rect
		vals := make([]geometry.Value, schema.Dims())
		for d := 0; d < schema.Dims(); d++ {
			iv := l.Value(d).Interval()
			lo := iv.Lo + rng.Int63n(iv.Hi-iv.Lo+1)
			vals[d] = geometry.IntervalValue(interval.New(lo, lo+(iv.Hi-lo)/2))
		}
		queries[qi] = geometry.MustRect(schema, vals...)
	}

	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			corpus.BelongsTo(queries[i%len(queries)])
		}
	})
	b.Run("rtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt.SearchContaining(queries[i%len(queries)])
		}
	})
}
