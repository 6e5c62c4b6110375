package core

import (
	"strings"
	"testing"

	"repro/internal/bitset"
)

// explainSetup builds Example 1's divided trees with an extra violating
// record on {L2}.
func explainSetup(t *testing.T, extra int64) []*GroupTree {
	t.Helper()
	_, tree, gr, a := example1Setup(t)
	if extra > 0 {
		if err := tree.Insert(bitset.MaskOf(1), extra); err != nil {
			t.Fatal(err)
		}
	}
	trees, err := Divide(tree, gr, a)
	if err != nil {
		t.Fatal(err)
	}
	return trees
}

func TestExplainSatisfiedEquation(t *testing.T) {
	trees := explainSetup(t, 0)
	e, err := Explain(trees, bitset.MaskOf(0, 1)) // {L1,L2}
	if err != nil {
		t.Fatal(err)
	}
	if e.Violated() {
		t.Error("satisfied equation reported violated")
	}
	// C⟨{1,2}⟩ = C[{1,2}] + C[{2}] = 840 + 400.
	if e.CV != 1240 || e.AV != 3000 || e.Deficit != -1760 {
		t.Errorf("explanation = CV %d AV %d deficit %d", e.CV, e.AV, e.Deficit)
	}
	if len(e.Contributions) != 2 {
		t.Fatalf("contributions = %v", e.Contributions)
	}
	// Descending count order: {L1,L2}:840 then {L2}:400.
	if e.Contributions[0].Set != bitset.MaskOf(0, 1) || e.Contributions[0].Count != 840 {
		t.Errorf("contributions[0] = %+v", e.Contributions[0])
	}
	if e.Contributions[1].Set != bitset.MaskOf(1) || e.Contributions[1].Count != 400 {
		t.Errorf("contributions[1] = %+v", e.Contributions[1])
	}
	if len(e.Budgets) != 2 || e.Budgets[0].Aggregate != 2000 || e.Budgets[1].Aggregate != 1000 {
		t.Errorf("budgets = %+v", e.Budgets)
	}
	if e.Remediation() != 0 {
		t.Errorf("remediation = %d, want 0", e.Remediation())
	}
}

func TestExplainViolatedEquation(t *testing.T) {
	trees := explainSetup(t, 700) // C⟨{2}⟩ = 1100 > 1000
	e, err := Explain(trees, bitset.MaskOf(1))
	if err != nil {
		t.Fatal(err)
	}
	if !e.Violated() || e.Deficit != 100 {
		t.Errorf("deficit = %d, want 100", e.Deficit)
	}
	if e.Remediation() != 100 {
		t.Errorf("remediation = %d, want 100", e.Remediation())
	}
	s := e.String()
	if !strings.Contains(s, "VIOLATED") || !strings.Contains(s, "A[{2}] = 1000") {
		t.Errorf("String = %q", s)
	}
	// Explanation must be consistent with the group's second tree too.
	e2, err := Explain(trees, bitset.MaskOf(2, 4)) // {L3,L5} in group 2
	if err != nil {
		t.Fatal(err)
	}
	if e2.Group != 1 || e2.CV != 820 || e2.AV != 5000 {
		t.Errorf("group-2 explanation = %+v", e2)
	}
}

func TestExplainErrors(t *testing.T) {
	trees := explainSetup(t, 0)
	if _, err := Explain(trees, 0); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := Explain(trees, bitset.MaskOf(0, 2)); err == nil {
		t.Error("cross-group set accepted")
	}
	if _, err := Explain(trees, bitset.MaskOf(9)); err == nil {
		t.Error("out-of-corpus set accepted")
	}
}

func TestExplainReportMatchesViolations(t *testing.T) {
	trees := explainSetup(t, 700)
	rep, err := Validate(trees)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("expected violations")
	}
	exps, err := ExplainReport(trees, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != len(rep.Violations) {
		t.Fatalf("explanations = %d, violations = %d", len(exps), len(rep.Violations))
	}
	for i, e := range exps {
		v := rep.Violations[i]
		if e.Set != v.Set || e.CV != v.CV || e.AV != v.AV {
			t.Errorf("explanation %d (%v) disagrees with violation (%v)", i, e, v)
		}
		if !e.Violated() {
			t.Errorf("explanation %d not violated", i)
		}
		// Contribution totals reconstruct the LHS exactly.
		var sum int64
		for _, c := range e.Contributions {
			sum += c.Count
			if !c.Set.SubsetOf(e.Set) {
				t.Errorf("contribution %v outside %v", c.Set, e.Set)
			}
		}
		if sum != e.CV {
			t.Errorf("contributions sum to %d, CV = %d", sum, e.CV)
		}
	}
}

func TestTopContributors(t *testing.T) {
	trees := explainSetup(t, 0)
	e, err := Explain(trees, bitset.MaskOf(0, 1, 3)) // whole group 1
	if err != nil {
		t.Fatal(err)
	}
	// Contributions come largest first.
	if len(e.Contributions) == 0 || e.Contributions[0].Count != 840 {
		t.Fatalf("contributions = %+v, want the 840 term first", e.Contributions)
	}
	for i := 1; i < len(e.Contributions); i++ {
		if e.Contributions[i].Count > e.Contributions[i-1].Count {
			t.Errorf("contributions out of order: %+v", e.Contributions)
		}
	}
}
