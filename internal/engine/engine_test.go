package engine

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geometry"
	"repro/internal/interval"
	"repro/internal/license"
	"repro/internal/logstore"
)

// ex1Distributor wires the paper's Example 1 corpus into a distributor.
func ex1Distributor(t *testing.T, mode Mode) (*license.Example1, *Distributor) {
	t.Helper()
	ex := license.NewExample1()
	d := NewDistributor("D1", ex.Schema, mode, logstore.NewMem(0))
	for i := 0; i < ex.Corpus.Len(); i++ {
		l := ex.Corpus.License(i)
		copy := *l
		if _, err := d.AddRedistribution(&copy); err != nil {
			t.Fatal(err)
		}
	}
	return ex, d
}

func TestIssueInstanceValidation(t *testing.T) {
	ex, d := ex1Distributor(t, ModeOffline)
	// L_U^1 belongs to {L1,L2}: accepted.
	u1, err := d.Issue(license.Usage, ex.Usage1.Rect, 800)
	if err != nil {
		t.Fatalf("L_U^1 rejected: %v", err)
	}
	if u1.Kind != license.Usage || u1.Aggregate != 800 {
		t.Errorf("issued license = %+v", u1)
	}
	// A rectangle outside every license (like fig 2's L_U^2 example of
	// instance invalidity): rejected with ErrInstanceInvalid.
	far := geometry.MustRect(ex.Schema,
		geometry.IntervalValue(interval.MustDateRange("01/01/20", "02/01/20")),
		geometry.SetValue(ex.Taxonomy.MustResolve("India")),
	)
	if _, err := d.Issue(license.Usage, far, 10); !errors.Is(err, ErrInstanceInvalid) {
		t.Errorf("far issuance error = %v, want ErrInstanceInvalid", err)
	}
	st := d.Stats()
	if st.Issued != 1 || st.RejectedInstance != 1 || st.IssuedCounts != 800 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIssueCountValidation(t *testing.T) {
	ex, d := ex1Distributor(t, ModeOffline)
	if _, err := d.Issue(license.Usage, ex.Usage1.Rect, 0); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := d.Issue(license.Usage, ex.Usage1.Rect, -5); err == nil {
		t.Error("negative count accepted")
	}
}

func TestIssueWithoutLicenses(t *testing.T) {
	ex := license.NewExample1()
	d := NewDistributor("empty", ex.Schema, ModeOffline, logstore.NewMem(0))
	if _, err := d.Issue(license.Usage, ex.Usage1.Rect, 10); !errors.Is(err, ErrInstanceInvalid) {
		t.Errorf("err = %v, want ErrInstanceInvalid", err)
	}
}

func TestOnlineModeEnforcesAggregates(t *testing.T) {
	// Example 1's sequence in online mode: both issuances accepted (the
	// equation policy), then exhaustion is rejected.
	ex, d := ex1Distributor(t, ModeOnline)
	if _, err := d.Issue(license.Usage, ex.Usage1.Rect, 800); err != nil {
		t.Fatalf("L_U^1 rejected: %v", err)
	}
	if _, err := d.Issue(license.Usage, ex.Usage2.Rect, 400); err != nil {
		t.Fatalf("L_U^2 rejected: %v", err)
	}
	// {L2}'s headroom is now 1000-400-... L_U^1 consumed {L1,L2} jointly:
	// headroom for {L2} = A{2} - C⟨{2}⟩ = 1000 - 400 = 600, but the
	// equation for {L1,L2} binds: 3000 - 1200 = 1800. So 600 left for {L2}.
	if _, err := d.Issue(license.Usage, ex.Usage2.Rect, 601); !errors.Is(err, ErrAggregateExhausted) {
		t.Errorf("over-issuance error = %v, want ErrAggregateExhausted", err)
	}
	if _, err := d.Issue(license.Usage, ex.Usage2.Rect, 600); err != nil {
		t.Errorf("exact headroom rejected: %v", err)
	}
	st := d.Stats()
	if st.Issued != 3 || st.RejectedAggregate != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The audit of an online-mode log must be clean by construction.
	rep, _, err := d.Audit(1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("online log audits dirty: %v", rep.Violations)
	}
}

func TestOfflineAuditFindsViolations(t *testing.T) {
	ex, d := ex1Distributor(t, ModeOffline)
	// Offline mode happily logs over-issuance...
	for i := 0; i < 3; i++ {
		if _, err := d.Issue(license.Usage, ex.Usage2.Rect, 400); err != nil {
			t.Fatal(err)
		}
	}
	// ...and the audit catches it: C⟨{2}⟩ = 1200 > 1000.
	rep, aud, err := d.Audit(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("audit missed the violation")
	}
	if aud.Grouping().NumGroups() != 2 {
		t.Errorf("groups = %d, want 2", aud.Grouping().NumGroups())
	}
	if rep.Equations != 10 {
		t.Errorf("equations = %d, want 10", rep.Equations)
	}
}

func TestIncrementalGroupTracking(t *testing.T) {
	ex := license.NewExample1()
	d := NewDistributor("D", ex.Schema, ModeOffline, logstore.NewMem(0))
	counts := []int{1, 1, 2, 2, 2} // groups after adding L1..L5 in order
	for i := 0; i < ex.Corpus.Len(); i++ {
		l := *ex.Corpus.License(i)
		if _, err := d.AddRedistribution(&l); err != nil {
			t.Fatal(err)
		}
		if got := d.NumGroups(); got != counts[i] {
			t.Errorf("after L%d: groups = %d, want %d", i+1, got, counts[i])
		}
	}
}

func TestBelongsToMask(t *testing.T) {
	ex, d := ex1Distributor(t, ModeOffline)
	set := d.BelongsTo(ex.Usage1.Rect)
	if set.String() != "{1,2}" {
		t.Errorf("BelongsTo = %v, want {1,2}", set)
	}
}

func TestNetworkRouting(t *testing.T) {
	ex := license.NewExample1()
	net := NewNetwork(ex.Schema, ModeOffline)
	l1 := *ex.Corpus.License(0)
	d, err := net.Grant("acme", &l1)
	if err != nil {
		t.Fatal(err)
	}
	if net.Distributor("acme", "K", license.Play) != d {
		t.Error("lookup after grant failed")
	}
	if net.Distributor("acme", "K2", license.Play) != nil {
		t.Error("lookup of unknown content succeeded")
	}
	if net.Distributor("other", "K", license.Play) != nil {
		t.Error("lookup of unknown distributor succeeded")
	}
	// Second grant reuses the same corpus.
	l2 := *ex.Corpus.License(1)
	d2, err := net.Grant("acme", &l2)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d {
		t.Error("second grant created a new distributor")
	}
	if d.Corpus().Len() != 2 {
		t.Errorf("corpus len = %d, want 2", d.Corpus().Len())
	}
	if len(net.distributors) != 1 {
		t.Errorf("distributors = %d, want 1", len(net.distributors))
	}
}

func TestNetworkAuditAll(t *testing.T) {
	ex := license.NewExample1()
	net := NewNetwork(ex.Schema, ModeOffline)
	var d *Distributor
	for i := 0; i < ex.Corpus.Len(); i++ {
		l := *ex.Corpus.License(i)
		var err error
		d, err = net.Grant("acme", &l)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Issue(license.Usage, ex.Usage1.Rect, 800); err != nil {
		t.Fatal(err)
	}
	reports, err := net.AuditAll(2)
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := reports[d]
	if !ok {
		t.Fatal("no report for distributor")
	}
	if !rep.OK() {
		t.Errorf("violations: %v", rep.Violations)
	}
}

func TestOnlineNeverProducesDirtyLog(t *testing.T) {
	// Fuzzish end-to-end: random issuance pressure in online mode must
	// always leave an audit-clean log (DESIGN.md invariant 2's engine
	// half: only instance-valid, equation-valid records are logged).
	ex, d := ex1Distributor(t, ModeOnline)
	r := rand.New(rand.NewSource(4))
	rects := []geometry.Rect{ex.Usage1.Rect, ex.Usage2.Rect}
	for i := 0; i < 300; i++ {
		_, _ = d.Issue(license.Usage, rects[r.Intn(len(rects))], int64(1+r.Intn(120)))
	}
	rep, _, err := d.Audit(1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("online mode let a violation through: %v", rep.Violations)
	}
	if d.Stats().RejectedAggregate == 0 {
		t.Error("test exerted no aggregate pressure")
	}
}

func TestSubRedistributionIssuance(t *testing.T) {
	// A distributor can issue redistribution licenses to sub-distributors;
	// they consume aggregate counts exactly like usage licenses.
	ex, d := ex1Distributor(t, ModeOnline)
	sub, err := d.Issue(license.Redistribution, ex.Usage1.Rect, 500)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Kind != license.Redistribution {
		t.Errorf("kind = %v", sub.Kind)
	}
	// The sub-license can seed a downstream distributor.
	d2 := NewDistributor("D2", ex.Schema, ModeOnline, logstore.NewMem(0))
	if _, err := d2.AddRedistribution(sub); err != nil {
		t.Fatal(err)
	}
	// Downstream issuance within the sub-license works...
	if _, err := d2.Issue(license.Usage, ex.Usage1.Rect, 500); err != nil {
		t.Fatal(err)
	}
	// ...and is bounded by the delegated 500 counts.
	if _, err := d2.Issue(license.Usage, ex.Usage1.Rect, 1); !errors.Is(err, ErrAggregateExhausted) {
		t.Errorf("err = %v, want ErrAggregateExhausted", err)
	}
}

func TestModeString(t *testing.T) {
	if ModeOffline.String() != "offline" || ModeOnline.String() != "online" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string wrong")
	}
}

func TestTopUpRestoresHeadroom(t *testing.T) {
	// The remediation loop: exhaust a license online, top it up, and the
	// previously rejected issuance now succeeds.
	ex, d := ex1Distributor(t, ModeOnline)
	if _, err := d.Issue(license.Usage, ex.Usage2.Rect, 1000); err != nil { // drain {L2}
		t.Fatal(err)
	}
	if _, err := d.Issue(license.Usage, ex.Usage2.Rect, 100); !errors.Is(err, ErrAggregateExhausted) {
		t.Fatalf("expected exhaustion, got %v", err)
	}
	if err := d.TopUp(1, 100); err != nil { // top up L2
		t.Fatal(err)
	}
	if _, err := d.Issue(license.Usage, ex.Usage2.Rect, 100); err != nil {
		t.Errorf("post-top-up issuance rejected: %v", err)
	}
	// And the audit sees the raised budget too.
	rep, _, err := d.Audit(1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("audit dirty after top-up: %v", rep.Violations)
	}
	if err := d.TopUp(9, 5); err == nil {
		t.Error("bad index accepted")
	}
}

func TestDistributorName(t *testing.T) {
	ex := license.NewExample1()
	d := NewDistributor("named", ex.Schema, ModeOffline, logstore.NewMem(0))
	if d.Name() != "named" {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestAddRedistributionRejectsBadLicense(t *testing.T) {
	ex := license.NewExample1()
	d := NewDistributor("d", ex.Schema, ModeOffline, logstore.NewMem(0))
	u := *ex.Usage1 // usage kind is not a redistribution license
	if _, err := d.AddRedistribution(&u); err == nil {
		t.Error("usage license accepted as redistribution")
	}
}
