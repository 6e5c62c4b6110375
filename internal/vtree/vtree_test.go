package vtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/logstore"
)

// table2 returns the paper's Table 2 log records (corpus indexes 0..4).
func table2() []logstore.Record {
	return []logstore.Record{
		{Set: bitset.MaskOf(0, 1), Count: 800},   // L_U^1
		{Set: bitset.MaskOf(1), Count: 400},      // L_U^2
		{Set: bitset.MaskOf(0, 1), Count: 40},    // L_U^3
		{Set: bitset.MaskOf(0, 1, 3), Count: 30}, // L_U^4
		{Set: bitset.MaskOf(2, 4), Count: 800},   // L_U^5
		{Set: bitset.MaskOf(4), Count: 20},       // L_U^6
	}
}

// example1Aggregates is A = (2000, 1000, 3000, 4000, 2000).
func example1Aggregates() []int64 {
	return []int64{2000, 1000, 3000, 4000, 2000}
}

func buildTable2(t *testing.T) *Tree {
	t.Helper()
	tr, err := BuildRecords(5, table2())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := New(65); err == nil {
		t.Error("n > 64 accepted")
	}
	if _, err := New(0); err != nil {
		t.Errorf("n = 0 rejected: %v", err)
	}
}

func TestInsertErrors(t *testing.T) {
	tr := mustNew(3)
	if err := tr.Insert(0, 5); err == nil {
		t.Error("empty set accepted")
	}
	if err := tr.Insert(bitset.MaskOf(3), 5); err == nil {
		t.Error("out-of-universe set accepted")
	}
	if err := tr.Insert(bitset.MaskOf(0), 0); err == nil {
		t.Error("zero count accepted")
	}
	if err := tr.Insert(bitset.MaskOf(0), -1); err == nil {
		t.Error("negative count accepted")
	}
}

func TestTable2Counts(t *testing.T) {
	// §2.1: "the value of C[{1,2}], C[{2}], C[{1,2,4}], C[{3,5}] and C[{5}]
	// will be 840, 400, 30, 800 and 20 respectively."
	tr := buildTable2(t)
	cases := []struct {
		set  bitset.Mask
		want int64
	}{
		{bitset.MaskOf(0, 1), 840},
		{bitset.MaskOf(1), 400},
		{bitset.MaskOf(0, 1, 3), 30},
		{bitset.MaskOf(2, 4), 800},
		{bitset.MaskOf(4), 20},
		{bitset.MaskOf(0), 0},       // no record for {L1} alone
		{bitset.MaskOf(0, 2), 0},    // cross-group set never logged
		{bitset.MaskOf(0, 1, 2), 0}, // absent path
	}
	for _, c := range cases {
		if got := tr.Count(c.set); got != c.want {
			t.Errorf("C[%v] = %d, want %d", c.set, got, c.want)
		}
	}
}

func TestTable2TreeShape(t *testing.T) {
	// Fig 1: nodes root→L1→L2 (840), root→L1→L2→L4 (30), root→L2 (400),
	// root→L3→L5 (800), root→L5 (20); plus zero-count interior nodes L1, L3.
	tr := buildTable2(t)
	st := tr.Stats()
	if st.Nodes != 7 {
		t.Errorf("nodes = %d, want 7 (fig 1)", st.Nodes)
	}
	if st.MaxDepth != 3 {
		t.Errorf("depth = %d, want 3", st.MaxDepth)
	}
	// Interior nodes hold zero counts.
	if got := tr.Count(bitset.MaskOf(2)); got != 0 {
		t.Errorf("C[{3}] = %d, want 0", got)
	}
}

func TestSumSubsetsExample2(t *testing.T) {
	// Example 2: equation for {L2,L3,L4} sums C over its 7 subsets; with
	// Table 2 only C[{2}]=400 is non-zero among them.
	tr := buildTable2(t)
	if got := tr.SumSubsets(bitset.MaskOf(1, 2, 3)); got != 400 {
		t.Errorf("C⟨{2,3,4}⟩ = %d, want 400", got)
	}
	// Full set: all records are subsets → total issued 2090.
	if got := tr.SumSubsets(bitset.FullMask(5)); got != 2090 {
		t.Errorf("C⟨S^5⟩ = %d, want 2090", got)
	}
	// {L1,L2}: 840 + 400 = 1240.
	if got := tr.SumSubsets(bitset.MaskOf(0, 1)); got != 1240 {
		t.Errorf("C⟨{1,2}⟩ = %d, want 1240", got)
	}
	if got := tr.SumSubsets(0); got != 0 {
		t.Errorf("C⟨∅⟩ = %d, want 0", got)
	}
}

// bruteSumSubsets computes C⟨S⟩ straight from the log.
func bruteSumSubsets(records []logstore.Record, s bitset.Mask) int64 {
	var total int64
	for _, r := range records {
		if r.Set.SubsetOf(s) {
			total += r.Count
		}
	}
	return total
}

func TestSumSubsetsMatchesBruteForceQuick(t *testing.T) {
	// DESIGN.md invariant 1.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		full := bitset.FullMask(n)
		var records []logstore.Record
		for i := 0; i < r.Intn(200); i++ {
			set := bitset.Mask(r.Int63()) & full
			if set.Empty() {
				set = bitset.MaskOf(r.Intn(n))
			}
			records = append(records, logstore.Record{Set: set, Count: int64(1 + r.Intn(30))})
		}
		tr, err := BuildRecords(n, records)
		if err != nil {
			return false
		}
		for trial := 0; trial < 30; trial++ {
			s := bitset.Mask(r.Int63()) & full
			if tr.SumSubsets(s) != bruteSumSubsets(records, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestValidateAllTable2OK(t *testing.T) {
	tr := buildTable2(t)
	res, err := tr.ValidateAll(example1Aggregates())
	if err != nil {
		t.Fatal(err)
	}
	if res.Equations != 31 {
		t.Errorf("equations = %d, want 2^5-1 = 31", res.Equations)
	}
	if !res.OK() {
		t.Errorf("Table 2 log should validate; violations: %v", res.Violations)
	}
}

func TestValidateAllDetectsViolation(t *testing.T) {
	tr := buildTable2(t)
	// Push {L2} over its budget: C⟨{2}⟩ becomes 400+700=1100 > 1000.
	if err := tr.Insert(bitset.MaskOf(1), 700); err != nil {
		t.Fatal(err)
	}
	res, err := tr.ValidateAll(example1Aggregates())
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("violation not detected")
	}
	// The violated sets must include {L2} itself.
	found := false
	for _, v := range res.Violations {
		if v.Set == bitset.MaskOf(1) {
			found = true
			if v.CV != 1100 || v.AV != 1000 {
				t.Errorf("violation = %+v, want CV=1100 AV=1000", v)
			}
		}
		// Every reported violation really violates.
		if v.CV <= v.AV {
			t.Errorf("non-violation reported: %+v", v)
		}
	}
	if !found {
		t.Errorf("{L2} not among violations: %v", res.Violations)
	}
}

func TestValidateAllWrongArity(t *testing.T) {
	tr := buildTable2(t)
	if _, err := tr.ValidateAll([]int64{1, 2}); err == nil {
		t.Error("wrong aggregate arity accepted")
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	tr := buildTable2(t)
	recs := tr.Records()
	back, err := BuildRecords(5, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(back) {
		t.Error("Records round-trip changed the tree")
	}
	// Insertion order must not matter.
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
	back2, err := BuildRecords(5, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(back2) {
		t.Error("tree depends on insertion order")
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := buildTable2(t)
	cp := tr.Clone()
	if !tr.Equal(cp) {
		t.Fatal("clone differs")
	}
	if err := cp.Insert(bitset.MaskOf(0), 5); err != nil {
		t.Fatal(err)
	}
	if tr.Equal(cp) {
		t.Error("mutating clone affected original")
	}
	if tr.Count(bitset.MaskOf(0)) != 0 {
		t.Error("original mutated")
	}
}

// mustNew is New for test fixtures; it panics on error.
func mustNew(n int) *Tree {
	t, err := New(n)
	if err != nil {
		panic(err)
	}
	return t
}

func TestEqualDifferentN(t *testing.T) {
	a, b := mustNew(3), mustNew(4)
	if a.Equal(b) {
		t.Error("trees over different N reported equal")
	}
}

func TestStatsEmptyTree(t *testing.T) {
	tr := mustNew(5)
	st := tr.Stats()
	if st.Nodes != 0 || st.MaxDepth != 0 {
		t.Errorf("empty tree stats = %+v", st)
	}
	if st.Bytes < nodeFixedBytes {
		t.Errorf("Bytes = %d, want at least root cost", st.Bytes)
	}
}

func TestBuildFromStore(t *testing.T) {
	mem := logstore.NewMem(0)
	for _, r := range table2() {
		if err := mem.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := Build(5, mem)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(buildTable2(t)) {
		t.Error("Build(store) differs from BuildRecords")
	}
}

func TestStringRendering(t *testing.T) {
	tr := mustNew(3)
	if err := tr.Insert(bitset.MaskOf(0, 2), 7); err != nil {
		t.Fatal(err)
	}
	got := tr.String()
	want := "root\n  L1 C=0\n    L3 C=7\n"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestValidateAllStressAgainstBruteForce(t *testing.T) {
	// Cross-check every equation against a direct log scan for a random
	// mid-size instance.
	r := rand.New(rand.NewSource(99))
	n := 9
	full := bitset.FullMask(n)
	var records []logstore.Record
	for i := 0; i < 500; i++ {
		set := bitset.Mask(r.Int63()) & full
		if set.Empty() {
			continue
		}
		records = append(records, logstore.Record{Set: set, Count: int64(1 + r.Intn(25))})
	}
	tr, err := BuildRecords(n, records)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]int64, n)
	for i := range a {
		a[i] = int64(500 + r.Intn(1500))
	}
	res, err := tr.ValidateAll(a)
	if err != nil {
		t.Fatal(err)
	}
	violated := map[bitset.Mask]bool{}
	for _, v := range res.Violations {
		violated[v.Set] = true
	}
	for s := bitset.Mask(1); ; s++ {
		cv := bruteSumSubsets(records, s)
		var av int64
		s.ForEach(func(e int) bool { av += a[e]; return true })
		if (cv > av) != violated[s] {
			t.Fatalf("equation %v: brute (cv=%d av=%d) disagrees with ValidateAll", s, cv, av)
		}
		if s == full {
			break
		}
	}
}

func TestHeadroom(t *testing.T) {
	tr := buildTable2(t)
	a := example1Aggregates()
	// For base {L2}: the binding equation is {L2} itself:
	// A=1000, C⟨{2}⟩=400 → headroom 600. Larger supersets have more slack.
	room, err := tr.Headroom(bitset.MaskOf(1), a)
	if err != nil {
		t.Fatal(err)
	}
	if room != 600 {
		t.Errorf("Headroom({2}) = %d, want 600", room)
	}
	// Issuing exactly the headroom keeps everything valid; one more breaks.
	if err := tr.Insert(bitset.MaskOf(1), room); err != nil {
		t.Fatal(err)
	}
	res, err := tr.ValidateAll(a)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Errorf("issuing headroom broke validation: %v", res.Violations)
	}
	if err := tr.Insert(bitset.MaskOf(1), 1); err != nil {
		t.Fatal(err)
	}
	res, err = tr.ValidateAll(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Error("issuing headroom+1 must violate")
	}
	room, err = tr.Headroom(bitset.MaskOf(1), a)
	if err != nil {
		t.Fatal(err)
	}
	if room != -1 {
		t.Errorf("post-violation headroom = %d, want -1", room)
	}
}

func TestHeadroomErrors(t *testing.T) {
	tr := buildTable2(t)
	a := example1Aggregates()
	if _, err := tr.Headroom(0, a); err == nil {
		t.Error("empty base accepted")
	}
	if _, err := tr.Headroom(bitset.MaskOf(9), a); err == nil {
		t.Error("out-of-universe base accepted")
	}
	if _, err := tr.Headroom(bitset.MaskOf(0), a[:2]); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestHeadroomMatchesBruteForceQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		full := bitset.FullMask(n)
		var records []logstore.Record
		for i := 0; i < r.Intn(100); i++ {
			set := bitset.Mask(r.Int63()) & full
			if set.Empty() {
				continue
			}
			records = append(records, logstore.Record{Set: set, Count: int64(1 + r.Intn(40))})
		}
		tr, err := BuildRecords(n, records)
		if err != nil {
			return false
		}
		a := make([]int64, n)
		for i := range a {
			a[i] = int64(r.Intn(800))
		}
		base := bitset.Mask(r.Int63()) & full
		if base.Empty() {
			base = bitset.MaskOf(r.Intn(n))
		}
		got, err := tr.Headroom(base, a)
		if err != nil {
			return false
		}
		// Brute force: min over supersets of base.
		want := int64(1) << 62
		for s := bitset.Mask(1); ; s++ {
			if base.SubsetOf(s) {
				var av int64
				s.ForEach(func(e int) bool { av += a[e]; return true })
				if room := av - bruteSumSubsets(records, s); room < want {
					want = room
				}
			}
			if s == full {
				break
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMergeCombinesLogs(t *testing.T) {
	recs := table2()
	// Split Table 2 between two authorities.
	a, err := BuildRecords(5, recs[:3])
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildRecords(5, recs[3:])
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	want := buildTable2(t)
	if !a.Equal(want) {
		t.Error("merged tree differs from single-authority tree")
	}
	// b is untouched.
	if b.Count(bitset.MaskOf(0, 1)) != 0 {
		t.Error("Merge modified the source tree")
	}
}

func TestMergeErrorsAndLaws(t *testing.T) {
	a := mustNew(4)
	b := mustNew(5)
	if err := a.Merge(b); err == nil {
		t.Error("universe mismatch accepted")
	}
	// Commutativity on random splits.
	r := rand.New(rand.NewSource(12))
	var left, right []logstore.Record
	for i := 0; i < 100; i++ {
		rec := logstore.Record{
			Set:   bitset.Mask(1 + r.Intn(255)),
			Count: int64(1 + r.Intn(30)),
		}
		if r.Intn(2) == 0 {
			left = append(left, rec)
		} else {
			right = append(right, rec)
		}
	}
	l1, _ := BuildRecords(8, left)
	r1, _ := BuildRecords(8, right)
	if err := l1.Merge(r1); err != nil {
		t.Fatal(err)
	}
	l2, _ := BuildRecords(8, left)
	r2, _ := BuildRecords(8, right)
	if err := r2.Merge(l2); err != nil {
		t.Fatal(err)
	}
	if !l1.Equal(r2) {
		t.Error("Merge is not commutative")
	}
}
