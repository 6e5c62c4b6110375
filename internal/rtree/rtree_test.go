package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/geometry"
	"repro/internal/interval"
	"repro/internal/license"
)

func schema2D() *geometry.Schema {
	return geometry.MustSchema(
		geometry.Axis{Name: "x", Kind: geometry.KindInterval},
		geometry.Axis{Name: "y", Kind: geometry.KindInterval},
	)
}

func box(s *geometry.Schema, x0, x1, y0, y1 int64) geometry.Rect {
	return geometry.MustRect(s,
		geometry.IntervalValue(interval.New(x0, x1)),
		geometry.IntervalValue(interval.New(y0, y1)))
}

func TestInsertAndSearchSmall(t *testing.T) {
	s := schema2D()
	tr := New(s, 0) // raised to default
	rects := []geometry.Rect{
		box(s, 0, 10, 0, 10),
		box(s, 5, 15, 5, 15),
		box(s, 100, 110, 100, 110),
	}
	for i, r := range rects {
		if err := tr.Insert(r, i); err != nil {
			t.Fatal(err)
		}
	}
	if tr.size != 3 {
		t.Errorf("size = %d, want 3", tr.size)
	}
	q := box(s, 6, 9, 6, 9) // inside 0 and 1
	got := tr.SearchContaining(q)
	sort.Ints(got)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("SearchContaining = %v, want [0 1]", got)
	}
	if got := tr.SearchContaining(box(s, 200, 201, 200, 201)); len(got) != 0 {
		t.Errorf("far query returned %v", got)
	}
	if msg := tr.checkInvariants(); msg != "" {
		t.Errorf("invariant broken: %s", msg)
	}
}

func TestInsertErrors(t *testing.T) {
	s := schema2D()
	tr := New(s, 8)
	if err := tr.Insert(geometry.Rect{}, 0); err == nil {
		t.Error("zero rect accepted")
	}
	other := schema2D()
	if err := tr.Insert(box(other, 0, 1, 0, 1), 0); err == nil {
		t.Error("foreign-schema rect accepted")
	}
	empty := geometry.MustRect(s,
		geometry.IntervalValue(interval.Empty()),
		geometry.IntervalValue(interval.New(0, 1)))
	if err := tr.Insert(empty, 0); err == nil {
		t.Error("empty rect accepted")
	}
}

// linearContaining is the oracle the R-tree must agree with.
func linearContaining(rects []geometry.Rect, q geometry.Rect) []int {
	var out []int
	for i, r := range rects {
		if r.Contains(q) {
			out = append(out, i)
		}
	}
	return out
}

func randBox(r *rand.Rand, s *geometry.Schema) geometry.Rect {
	x0 := r.Int63n(500)
	y0 := r.Int63n(500)
	return box(s, x0, x0+r.Int63n(80), y0, y0+r.Int63n(80))
}

func TestSearchMatchesLinearQuick(t *testing.T) {
	// DESIGN.md invariant 7: R-tree == linear scan, splits included.
	s := schema2D()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New(s, 4) // small fan-out to force deep trees
		var rects []geometry.Rect
		for i := 0; i < 150; i++ {
			b := randBox(r, s)
			rects = append(rects, b)
			if err := tr.Insert(b, i); err != nil {
				return false
			}
		}
		if msg := tr.checkInvariants(); msg != "" {
			t.Logf("invariant: %s", msg)
			return false
		}
		for trial := 0; trial < 25; trial++ {
			q := randBox(r, s)
			got := tr.SearchContaining(q)
			want := linearContaining(rects, q)
			if !sameSet(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDepthGrows(t *testing.T) {
	s := schema2D()
	tr := New(s, 4)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		if err := tr.Insert(randBox(r, s), i); err != nil {
			t.Fatal(err)
		}
	}
	depth := 1
	for n := tr.root; !n.leaf; n = n.entries[0].child {
		depth++
	}
	if depth < 3 {
		t.Errorf("depth = %d after 200 inserts with fan-out 4", depth)
	}
	if msg := tr.checkInvariants(); msg != "" {
		t.Errorf("invariant broken: %s", msg)
	}
}

func TestMixedAxesWithExample1(t *testing.T) {
	// The R-tree must answer the paper's instance-validation queries over
	// the mixed interval+set schema.
	ex := license.NewExample1()
	tr := New(ex.Schema, 4)
	for i := 0; i < ex.Corpus.Len(); i++ {
		if err := tr.Insert(ex.Corpus.License(i).Rect, i); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.SearchContaining(ex.Usage1.Rect)
	sort.Ints(got)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("L_U^1 containment = %v, want [0 1]", got)
	}
	got = tr.SearchContaining(ex.Usage2.Rect)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("L_U^2 containment = %v, want [1]", got)
	}
}

func TestMixedAxesQuick(t *testing.T) {
	// Random rectangles over interval+set axes: R-tree equals linear scan.
	tax := 12
	s := geometry.MustSchema(
		geometry.Axis{Name: "t", Kind: geometry.KindInterval},
		geometry.Axis{Name: "r", Kind: geometry.KindSet, Universe: tax},
	)
	mk := func(r *rand.Rand) geometry.Rect {
		lo := r.Int63n(200)
		set := bitset.NewSet(tax)
		for i := 0; i < tax; i++ {
			if r.Intn(3) == 0 {
				set.Add(i)
			}
		}
		if set.Empty() {
			set.Add(r.Intn(tax))
		}
		return geometry.MustRect(s,
			geometry.IntervalValue(interval.New(lo, lo+r.Int63n(50))),
			geometry.SetValue(set))
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New(s, 5)
		var rects []geometry.Rect
		for i := 0; i < 80; i++ {
			b := mk(r)
			rects = append(rects, b)
			if err := tr.Insert(b, i); err != nil {
				return false
			}
		}
		for trial := 0; trial < 15; trial++ {
			q := mk(r)
			if !sameSet(tr.SearchContaining(q), linearContaining(rects, q)) {
				return false
			}
		}
		return tr.checkInvariants() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSearchContainingRTreeVsLinear(b *testing.B) {
	s := schema2D()
	r := rand.New(rand.NewSource(1))
	const n = 5000
	tr := New(s, 16)
	rects := make([]geometry.Rect, n)
	for i := range rects {
		rects[i] = randBox(r, s)
		if err := tr.Insert(rects[i], i); err != nil {
			b.Fatal(err)
		}
	}
	queries := make([]geometry.Rect, 64)
	for i := range queries {
		queries[i] = randBox(r, s)
	}
	b.Run("rtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.SearchContaining(queries[i%len(queries)])
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linearContaining(rects, queries[i%len(queries)])
		}
	})
}
