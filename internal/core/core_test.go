package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/overlap"
	"repro/internal/vtree"
)

// example1Setup builds the paper's running example: corpus, Table 2 tree,
// grouping, and aggregates.
func example1Setup(t *testing.T) (*license.Example1, *vtree.Tree, overlap.Grouping, []int64) {
	t.Helper()
	ex := license.NewExample1()
	tree, err := vtree.New(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ex.Log {
		if err := tree.Insert(e.Set, e.Count); err != nil {
			t.Fatal(err)
		}
	}
	gr := overlap.GroupsOf(ex.Corpus)
	return ex, tree, gr, ex.Corpus.Aggregates()
}

func TestDivideExample1Shape(t *testing.T) {
	// Fig 4/5: two trees; tree 1 holds the {L1,L2,(L4)} branches, tree 2
	// the {L3,L5} branches with indexes 3,5 remapped to 1,2.
	_, tree, gr, a := example1Setup(t)
	original := tree.Clone()
	trees, err := Divide(tree, gr, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("divided into %d trees, want 2", len(trees))
	}

	t1, t2 := trees[0], trees[1]
	if t1.Tree.N() != 3 || t2.Tree.N() != 2 {
		t.Errorf("tree sizes = %d,%d, want 3,2", t1.Tree.N(), t2.Tree.N())
	}
	// A_1 = (2000, 1000, 4000): budgets of L1, L2, L4.
	wantA1 := []int64{2000, 1000, 4000}
	for i, w := range wantA1 {
		if t1.Aggregates[i] != w {
			t.Errorf("A_1[%d] = %d, want %d", i, t1.Aggregates[i], w)
		}
	}
	// A_2 = (3000, 2000): budgets of L3, L5.
	if t2.Aggregates[0] != 3000 || t2.Aggregates[1] != 2000 {
		t.Errorf("A_2 = %v, want [3000 2000]", t2.Aggregates)
	}

	// Tree 1 counts with local indexes: {L1,L2}→{0,1}: 840; {L2}→{1}: 400;
	// {L1,L2,L4}→{0,1,2}: 30.
	if got := t1.Tree.Count(bitset.MaskOf(0, 1)); got != 840 {
		t.Errorf("tree1 C[{0,1}] = %d, want 840", got)
	}
	if got := t1.Tree.Count(bitset.MaskOf(1)); got != 400 {
		t.Errorf("tree1 C[{1}] = %d, want 400", got)
	}
	if got := t1.Tree.Count(bitset.MaskOf(0, 1, 2)); got != 30 {
		t.Errorf("tree1 C[{0,1,2}] = %d, want 30", got)
	}
	// Tree 2: fig 5 remaps indexes 3,5 → 1,2 (locally 0,1):
	// {L3,L5}: 800; {L5}: 20.
	if got := t2.Tree.Count(bitset.MaskOf(0, 1)); got != 800 {
		t.Errorf("tree2 C[{0,1}] = %d, want 800", got)
	}
	if got := t2.Tree.Count(bitset.MaskOf(1)); got != 20 {
		t.Errorf("tree2 C[{1}] = %d, want 20", got)
	}

	// Fig 10's storage claim: total node count unchanged by division.
	var nodes int
	for _, gt := range trees {
		nodes += gt.Tree.Stats().Nodes
	}
	if want := original.Stats().Nodes; nodes != want {
		t.Errorf("divided trees hold %d nodes, original %d", nodes, want)
	}
}

func TestToGlobal(t *testing.T) {
	_, tree, gr, a := example1Setup(t)
	trees, err := Divide(tree, gr, a)
	if err != nil {
		t.Fatal(err)
	}
	// Tree 2 local {0,1} is global {L3,L5} = {2,4}.
	if got := trees[1].ToGlobal(bitset.MaskOf(0, 1)); got != bitset.MaskOf(2, 4) {
		t.Errorf("ToGlobal = %v, want {3,5}", got)
	}
	// Tree 1 local {2} is global {L4} = {3}.
	if got := trees[0].ToGlobal(bitset.MaskOf(2)); got != bitset.MaskOf(3) {
		t.Errorf("ToGlobal = %v, want {4}", got)
	}
}

func TestDivideErrors(t *testing.T) {
	_, tree, gr, a := example1Setup(t)
	if _, err := Divide(tree, gr, a[:3]); err == nil {
		t.Error("short aggregate array accepted")
	}
	badGr := overlap.Grouping{N: 4, Groups: gr.Groups}
	if _, err := Divide(tree, badGr, a[:4]); err == nil {
		t.Error("mismatched grouping N accepted")
	}
	invalid := overlap.Grouping{N: 5, Groups: []overlap.Group{{Members: bitset.MaskOf(0), Size: 1}}}
	if _, err := Divide(tree, invalid, a); err == nil {
		t.Error("non-partition grouping accepted")
	}
}

func TestDivideDetectsCrossGroupRecord(t *testing.T) {
	// A record spanning both groups contradicts Corollary 1.1; Divide must
	// refuse rather than silently mis-validate.
	_, tree, gr, a := example1Setup(t)
	if err := tree.Insert(bitset.MaskOf(0, 2), 10); err != nil { // {L1,L3}
		t.Fatal(err)
	}
	if _, err := Divide(tree, gr, a); err == nil {
		t.Error("cross-group record accepted")
	}
}

func TestValidateExample1(t *testing.T) {
	_, tree, gr, a := example1Setup(t)
	trees, err := Divide(tree, gr, a)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Validate(trees)
	if err != nil {
		t.Fatal(err)
	}
	// (2^3-1) + (2^2-1) = 10 equations instead of 31.
	if rep.Equations != 10 {
		t.Errorf("equations = %d, want 10", rep.Equations)
	}
	if !rep.OK() {
		t.Errorf("unexpected violations: %v", rep.Violations)
	}
}

func TestPaperExampleGain(t *testing.T) {
	// §4.2: "the approximate gain in this case would be
	// (2^5−1)/((2^3−1)+(2^2−1)) = 3.1 times."
	_, _, gr, _ := example1Setup(t)
	if got := EquationCount(gr); got != 10 {
		t.Errorf("EquationCount = %d, want 10", got)
	}
	if got := Gain(gr); math.Abs(got-3.1) > 0.001 {
		t.Errorf("Gain = %v, want 3.1", got)
	}
}

func TestGainBounds(t *testing.T) {
	// G = 1 when one group holds everything; G = (2^N−1)/N when all are
	// isolated.
	one := overlap.Grouping{N: 6, Groups: []overlap.Group{{Members: bitset.FullMask(6), Size: 6}}}
	if got := Gain(one); got != 1 {
		t.Errorf("single-group gain = %v, want 1", got)
	}
	iso := overlap.Grouping{N: 6}
	for i := 0; i < 6; i++ {
		iso.Groups = append(iso.Groups, overlap.Group{Members: bitset.MaskOf(i), Size: 1})
	}
	want := (math.Pow(2, 6) - 1) / 6
	if got := Gain(iso); math.Abs(got-want) > 1e-9 {
		t.Errorf("isolated gain = %v, want %v", got, want)
	}
	if got := Gain(overlap.Grouping{N: 0}); got != 1 {
		t.Errorf("empty gain = %v, want 1", got)
	}
}

func TestFullEquationCountLargeN(t *testing.T) {
	if got := FullEquationCount(3); got != 7 {
		t.Errorf("FullEquationCount(3) = %v", got)
	}
	// Must not overflow for N = 64.
	if got := FullEquationCount(64); got < 1e19 {
		t.Errorf("FullEquationCount(64) = %v", got)
	}
}

func TestGroupedMatchesFullValidation(t *testing.T) {
	// DESIGN.md invariant 3 on the running example with an injected
	// violation: both validators report the same violated sets.
	ex, tree, gr, a := example1Setup(t)
	_ = ex
	if err := tree.Insert(bitset.MaskOf(2, 4), 5000); err != nil { // blow {L3,L5}
		t.Fatal(err)
	}
	full := tree.Clone()
	fullRes, err := full.ValidateAll(a)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := Divide(tree, gr, a)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Validate(trees)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || fullRes.OK() {
		t.Fatal("violation not detected")
	}
	// Every grouped violation must appear in the full run with identical
	// CV/AV.
	fullBySet := map[bitset.Mask]vtree.Violation{}
	for _, v := range fullRes.Violations {
		fullBySet[v.Set] = v
	}
	for _, v := range rep.Violations {
		w, ok := fullBySet[v.Set]
		if !ok {
			t.Errorf("grouped-only violation %v", v)
			continue
		}
		if w.CV != v.CV || w.AV != v.AV {
			t.Errorf("violation %v: grouped %+v, full %+v", v.Set, v, w)
		}
	}
	// Every full violation that stays within one group must be reported by
	// the grouped validator. (Cross-group full violations are implied by
	// within-group ones — Theorem 2 — and are intentionally not re-listed.)
	grouped := map[bitset.Mask]bool{}
	for _, v := range rep.Violations {
		grouped[v.Set] = true
	}
	for _, v := range fullRes.Violations {
		inOneGroup := false
		for _, g := range gr.Groups {
			if v.Set.SubsetOf(g.Members) {
				inOneGroup = true
			}
		}
		if inOneGroup && !grouped[v.Set] {
			t.Errorf("full violation %v missed by grouped validator", v.Set)
		}
	}
}

// randomGroupedInstance generates a corpus-free random instance: a grouping
// with planted group structure and a log whose records each stay within one
// group (as Corollary 1.1 guarantees for real logs).
func randomGroupedInstance(r *rand.Rand) (overlap.Grouping, []logstore.Record, []int64) {
	numGroups := 1 + r.Intn(4)
	var groups []overlap.Group
	n := 0
	for k := 0; k < numGroups && n < 12; k++ {
		size := 1 + r.Intn(4)
		if n+size > 12 {
			size = 12 - n
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
	for i := 0; i < 100+r.Intn(200); i++ {
		g := groups[r.Intn(len(groups))]
		sub := bitset.Mask(r.Int63()) & g.Members
		if sub.Empty() {
			sub = bitset.MaskOf(g.Members.Min())
		}
		records = append(records, logstore.Record{Set: sub, Count: int64(1 + r.Intn(30))})
	}
	a := make([]int64, n)
	for i := range a {
		a[i] = int64(100 + r.Intn(2000)) // tight enough to violate sometimes
	}
	return gr, records, a
}

func TestGroupedMatchesFullQuick(t *testing.T) {
	// The main soundness property over random instances: within-group
	// violation sets agree exactly between grouped and full validation,
	// and the grouped validator never reports cross-group sets.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gr, records, a := randomGroupedInstance(r)
		tree, err := vtree.BuildRecords(gr.N, records)
		if err != nil {
			return false
		}
		fullRes, err := tree.Clone().ValidateAll(a)
		if err != nil {
			return false
		}
		trees, err := Divide(tree, gr, a)
		if err != nil {
			return false
		}
		rep, err := Validate(trees)
		if err != nil {
			return false
		}
		if rep.Equations != EquationCount(gr) {
			return false
		}
		groupedBySet := map[bitset.Mask]vtree.Violation{}
		for _, v := range rep.Violations {
			groupedBySet[v.Set] = v
		}
		seen := 0
		for _, v := range fullRes.Violations {
			within := false
			for _, g := range gr.Groups {
				if v.Set.SubsetOf(g.Members) {
					within = true
					break
				}
			}
			if !within {
				continue // implied by within-group equations
			}
			seen++
			g, ok := groupedBySet[v.Set]
			if !ok || g.CV != v.CV || g.AV != v.AV {
				return false
			}
		}
		return seen == len(rep.Violations)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDividePreservesRecordsQuick(t *testing.T) {
	// DESIGN.md invariant 5: merging divided trees' records (translated to
	// global indexes) reproduces the original tree.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gr, records, a := randomGroupedInstance(r)
		tree, err := vtree.BuildRecords(gr.N, records)
		if err != nil {
			return false
		}
		original := tree.Clone()
		trees, err := Divide(tree, gr, a)
		if err != nil {
			return false
		}
		var back []logstore.Record
		for _, gt := range trees {
			for _, rec := range gt.Tree.Records() {
				back = append(back, logstore.Record{Set: gt.ToGlobal(rec.Set), Count: rec.Count})
			}
		}
		rebuilt, err := vtree.BuildRecords(gr.N, back)
		if err != nil {
			return false
		}
		return rebuilt.Equal(original)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		gr, records, a := randomGroupedInstance(r)
		tree, err := vtree.BuildRecords(gr.N, records)
		if err != nil {
			t.Fatal(err)
		}
		trees, err := Divide(tree, gr, a)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := Validate(trees)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			par, err := ValidateParallel(trees, workers)
			if err != nil {
				t.Fatal(err)
			}
			if par.Equations != serial.Equations || len(par.Violations) != len(serial.Violations) {
				t.Fatalf("parallel(%d) diverges: %+v vs %+v", workers, par, serial)
			}
			for i := range par.Violations {
				if par.Violations[i] != serial.Violations[i] {
					t.Fatalf("violation %d differs", i)
				}
			}
		}
	}
	if _, err := ValidateParallel(nil, 0); err == nil {
		t.Error("workers=0 accepted")
	}
}

func TestAuditorEndToEnd(t *testing.T) {
	ex := license.NewExample1()
	log := logstore.NewMem(len(ex.Log))
	for _, e := range ex.Log {
		if err := log.Append(logstore.Record{Set: e.Set, Count: e.Count}); err != nil {
			t.Fatal(err)
		}
	}
	aud, err := NewAuditor(ex.Corpus, log)
	if err != nil {
		t.Fatal(err)
	}
	if aud.Grouping().NumGroups() != 2 {
		t.Errorf("groups = %d, want 2", aud.Grouping().NumGroups())
	}
	if got := aud.Gain(); math.Abs(got-3.1) > 0.001 {
		t.Errorf("Gain = %v, want 3.1", got)
	}
	rep, err := aud.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Equations != 10 {
		t.Errorf("report = %+v", rep)
	}
	// Parallel path.
	aud.Workers = 4
	rep2, err := aud.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Equations != rep.Equations {
		t.Error("parallel audit diverges")
	}
	tm := aud.Timings()
	if tm.Validation <= 0 {
		t.Error("validation timing not recorded")
	}
	if tm.DT() != tm.Grouping+tm.Division {
		t.Error("DT arithmetic wrong")
	}
}
