package bench

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/baseline"
)

func TestPoliciesEquationNeverLoses(t *testing.T) {
	rows, err := Policies([]int{4, 8, 12}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		eq := r.Granted["equation"]
		if eq <= 0 {
			t.Fatalf("N=%d: equation policy granted nothing", r.N)
		}
		for _, p := range []string{"random-pick", "first-fit", "best-fit"} {
			if r.Granted[p] > eq {
				t.Errorf("N=%d: %s granted %d > equation %d", r.N, p, r.Granted[p], eq)
			}
			if r.Accepted[p] == 0 {
				t.Errorf("N=%d: %s accepted nothing", r.N, p)
			}
		}
	}
}

func TestPoliciesPressureExists(t *testing.T) {
	// The tightened budgets must actually exhaust: the equation policy
	// should reject some requests too, otherwise the comparison is vacuous.
	rows, err := Policies([]int{8}, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Accepted["equation"] == r.Requests {
		t.Error("no exhaustion pressure: every request accepted")
	}
}

func TestWritePolicies(t *testing.T) {
	rows, err := Policies([]int{4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePolicies(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"equation", "random-pick", "worst loss", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestPoliciesFig11Pinned pins the fig 11 table at drmbench's default
// sweep and seed: any change to the equation policy's admission rule, or
// to the pick policies, shows up as a changed Granted figure.
func TestPoliciesFig11Pinned(t *testing.T) {
	rows, err := Policies([]int{4, 8, 12, 16, 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int64{
		"equation":    {4277, 11115, 14251, 21412, 25745},
		"best-fit":    {4123, 10912, 13968, 20779, 25328},
		"first-fit":   {4123, 10912, 13837, 20995, 25440},
		"random-pick": {4123, 10866, 13958, 20967, 25216},
	}
	for p, ws := range want {
		for i, r := range rows {
			if r.Granted[p] != ws[i] {
				t.Errorf("N=%d %s granted %d, want %d", r.N, p, r.Granted[p], ws[i])
			}
		}
	}
}

// TestGroupedAllocatorMatchesGlobalHeadroom replays fig 11's request
// streams through the serving-cache policy and through the global
// vtree.Headroom policy (baseline.EquationAllocator): grouped headroom
// must give every request the same accept/reject answer as the check
// over all 2^N equations.
func TestGroupedAllocatorMatchesGlobalHeadroom(t *testing.T) {
	for _, n := range []int{4, 8, 12} {
		w, err := policyWorkload(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		grouped, err := newGroupedAllocator(w)
		if err != nil {
			t.Fatal(err)
		}
		global, err := baseline.NewEquationAllocator(w.Corpus.Aggregates())
		if err != nil {
			t.Fatal(err)
		}
		rejected := 0
		for i, r := range w.Requests() {
			gerr := grouped.Allocate(r.Set, r.Count)
			werr := global.Allocate(r.Set, r.Count)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("N=%d request %d (%v, %d): grouped err %v, global err %v",
					n, i, r.Set, r.Count, gerr, werr)
			}
			if gerr != nil {
				if !errors.Is(gerr, baseline.ErrRejected) || !errors.Is(werr, baseline.ErrRejected) {
					t.Fatalf("N=%d request %d: unexpected errors %v / %v", n, i, gerr, werr)
				}
				rejected++
			}
		}
		if rejected == 0 {
			t.Errorf("N=%d: no request rejected; the comparison is vacuous", n)
		}
	}
}
