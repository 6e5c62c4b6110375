package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/logstore"
)

// Explanation decomposes one validation equation C⟨S⟩ ≤ A[S] into its
// parts, so an operator can see *why* a set is violated (or how close it
// is): which logged belongs-to sets contribute to the LHS, and which
// license budgets make up the RHS. All masks are global corpus indexes.
type Explanation struct {
	// Set is the equation's license set S.
	Set bitset.Mask
	// Group is the index of the overlap group containing S.
	Group int
	// CV and AV are the equation's two sides.
	CV, AV int64
	// Deficit is CV − AV: positive means violated.
	Deficit int64
	// Contributions lists the non-zero C[S'] terms of the LHS, S' ⊆ S,
	// in descending count order — the issuances to claw back first.
	Contributions []logstore.Record
	// Budgets lists each member license's aggregate constraint — the
	// budgets to top up.
	Budgets []LicenseBudget
}

// LicenseBudget is one RHS term of an explained equation.
type LicenseBudget struct {
	// Index is the global corpus index of the license.
	Index int
	// Aggregate is its budget A[j].
	Aggregate int64
}

// Violated reports whether the explained equation is violated.
func (e Explanation) Violated() bool { return e.Deficit > 0 }

// String renders a compact operator-facing summary.
func (e Explanation) String() string {
	var b strings.Builder
	verdict := "satisfied"
	if e.Violated() {
		verdict = "VIOLATED"
	}
	fmt.Fprintf(&b, "equation %v: issued %d vs budget %d (%s, margin %d)\n",
		e.Set, e.CV, e.AV, verdict, e.AV-e.CV)
	for _, c := range e.Contributions {
		fmt.Fprintf(&b, "  C[%v] = %d\n", c.Set, c.Count)
	}
	for _, bd := range e.Budgets {
		fmt.Fprintf(&b, "  A[{%d}] = %d\n", bd.Index+1, bd.Aggregate)
	}
	return b.String()
}

// Explain decomposes the validation equation for the given GLOBAL set
// over divided trees. The set must be non-empty and confined to a single
// group (cross-group sets have identically-zero LHS terms and are exactly
// the redundant equations the method removes; asking to explain one is a
// caller bug worth surfacing).
func Explain(trees []*GroupTree, set bitset.Mask) (Explanation, error) {
	if set.Empty() {
		return Explanation{}, fmt.Errorf("core: explain of empty set")
	}
	for k, gt := range trees {
		if !set.Intersects(gt.Group.Members) {
			continue
		}
		if !set.SubsetOf(gt.Group.Members) {
			return Explanation{}, fmt.Errorf(
				"core: set %v spans groups; its equation is redundant (Theorem 2) — explain its per-group projections instead", set)
		}
		return explainInGroup(gt, k, set), nil
	}
	return Explanation{}, fmt.Errorf("core: set %v outside every group", set)
}

// explainInGroup builds the explanation from group k's tree.
func explainInGroup(gt *GroupTree, k int, set bitset.Mask) Explanation {
	// Translate to the tree's local indexes.
	var local bitset.Mask
	pos := make(map[int]int, set.Len())
	for p, j := range gt.localToGlobal {
		pos[j] = p
	}
	set.ForEach(func(j int) bool {
		local = local.With(pos[j])
		return true
	})

	e := Explanation{Set: set, Group: k}
	for _, rec := range gt.Tree.Records() {
		if !rec.Set.SubsetOf(local) {
			continue
		}
		e.CV += rec.Count
		e.Contributions = append(e.Contributions, logstore.Record{
			Set:   gt.ToGlobal(rec.Set),
			Count: rec.Count,
		})
	}
	sort.Slice(e.Contributions, func(i, j int) bool {
		if e.Contributions[i].Count != e.Contributions[j].Count {
			return e.Contributions[i].Count > e.Contributions[j].Count
		}
		return e.Contributions[i].Set < e.Contributions[j].Set
	})
	local.ForEach(func(p int) bool {
		e.AV += gt.Aggregates[p]
		e.Budgets = append(e.Budgets, LicenseBudget{
			Index:     gt.localToGlobal[p],
			Aggregate: gt.Aggregates[p],
		})
		return true
	})
	e.Deficit = e.CV - e.AV
	return e
}

// ExplainReport explains every violation in a report, in report order.
func ExplainReport(trees []*GroupTree, rep Report) ([]Explanation, error) {
	out := make([]Explanation, 0, len(rep.Violations))
	for _, v := range rep.Violations {
		e, err := Explain(trees, v.Set)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// Remediation suggests the minimal additional budget per member license
// that would satisfy the equation if granted to ANY single member (since
// the RHS sums member budgets, a deficit d is cured by adding d to any
// one member's aggregate). Returns zero for satisfied equations.
func (e Explanation) Remediation() int64 {
	if e.Deficit <= 0 {
		return 0
	}
	return e.Deficit
}
