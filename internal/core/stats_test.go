package core

import (
	"testing"

	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/vtree"
)

// example1Auditor builds the batch auditor over the paper's fig 3 corpus
// and Table 2 log.
func example1Auditor(t *testing.T) *Auditor {
	t.Helper()
	ex := license.NewExample1()
	store := logstore.NewMem(0)
	for _, e := range ex.Log {
		if err := store.Append(logstore.Record{Set: e.Set, Count: e.Count}); err != nil {
			t.Fatal(err)
		}
	}
	aud, err := NewAuditor(ex.Corpus, store)
	if err != nil {
		t.Fatal(err)
	}
	return aud
}

// TestBatchAuditStats pins the AuditStats record on the paper's example:
// a batch audit revalidates everything, so the realized gain must equal
// eq. 3's theoretical G (31/10 = 3.1).
func TestBatchAuditStats(t *testing.T) {
	aud := example1Auditor(t)
	rep, err := aud.Audit()
	if err != nil {
		t.Fatal(err)
	}
	st := aud.Stats()
	if st.Licenses != 5 || st.Groups != 2 || st.LogRecords != 6 {
		t.Errorf("stats shape = %+v", st)
	}
	if st.EquationsChecked != rep.Equations || st.EquationsChecked != 10 {
		t.Errorf("equations checked = %d, want %d", st.EquationsChecked, rep.Equations)
	}
	if st.EquationsFull != 31 || st.EquationsEliminated != 21 {
		t.Errorf("full = %v eliminated = %v, want 31 / 21", st.EquationsFull, st.EquationsEliminated)
	}
	if st.GainRealized != st.GainTheoretical {
		t.Errorf("realized gain %v != theoretical %v on a full revalidation",
			st.GainRealized, st.GainTheoretical)
	}
	if st.GainRealized != aud.Gain() {
		t.Errorf("realized gain %v != auditor gain %v", st.GainRealized, aud.Gain())
	}
	if st.GroupsRevalidated != 2 {
		t.Errorf("groups revalidated = %d, want 2", st.GroupsRevalidated)
	}
	if st.ShardsUsed < 2 {
		t.Errorf("shards used = %d, want >= one per group", st.ShardsUsed)
	}
	if st.Violations != 0 {
		t.Errorf("violations = %d on the clean Table 2 log", st.Violations)
	}
	if st.Phases.Validate < 0 || st.Phases.Build < 0 {
		t.Errorf("negative phase timings: %+v", st.Phases)
	}
}

// TestInstrumentedAuditMovesCounters wires a registry and checks the
// audit-layer counters move and expose with the expected names.
func TestInstrumentedAuditMovesCounters(t *testing.T) {
	reg := obs.NewRegistry()
	vtree.Instrument(reg)
	Instrument(reg)
	defer func() { vtree.M, M = vtree.Metrics{}, Metrics{} }()

	aud := example1Auditor(t)
	if _, err := aud.Audit(); err != nil {
		t.Fatal(err)
	}
	if got := M.AuditRuns.Value(); got != 1 {
		t.Errorf("audit runs = %d, want 1", got)
	}
	if got := M.GroupsRevalidated.Value(); got != 2 {
		t.Errorf("groups revalidated = %d, want 2", got)
	}
	if got := vtree.M.EquationsChecked.Value(); got != 10 {
		t.Errorf("equations checked counter = %d, want 10", got)
	}
	if got := M.Gain.Value(); got < 3.09 || got > 3.11 {
		t.Errorf("gain gauge = %v, want 3.1", got)
	}
	if got := vtree.M.Flattens.Value(); got != 2 {
		t.Errorf("flattens = %d, want one per group", got)
	}
}

// TestShardsUsedMatchesValidateFanOut pins the stats-side shard
// accounting against vtree's ShardCount for a dominant-group budget.
func TestShardsUsedMatchesValidateFanOut(t *testing.T) {
	aud := example1Auditor(t)
	aud.Workers = 4
	if _, err := aud.Audit(); err != nil {
		t.Fatal(err)
	}
	budgets := shardBudgets(aud.Trees(), 4)
	want := 0
	for k, gt := range aud.Trees() {
		want += vtree.ShardCount(gt.Tree.N(), budgets[k])
	}
	if got := aud.Stats().ShardsUsed; got != want {
		t.Errorf("shards used = %d, want %d", got, want)
	}
}
