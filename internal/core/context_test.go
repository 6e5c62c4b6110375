package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/vtree"
)

// cancelledCtx returns a context that is already cancelled.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestAuditContextExpiredDeadline(t *testing.T) {
	// An audit whose deadline has already passed must return promptly with
	// ErrAuditIncomplete, zero groups complete, and zero equations checked
	// — never a spurious verdict.
	aud := example1Auditor(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rep, err := aud.AuditContext(ctx)
	if !errors.Is(err, drmerr.ErrAuditIncomplete) {
		t.Fatalf("err = %v, want ErrAuditIncomplete", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want the context cause preserved", err)
	}
	if drmerr.KindOf(err) != drmerr.KindIncomplete {
		t.Errorf("KindOf = %v, want KindIncomplete", drmerr.KindOf(err))
	}
	if rep.Complete() || rep.GroupsComplete() != 0 {
		t.Errorf("GroupsComplete = %d (complete=%v), want 0", rep.GroupsComplete(), rep.Complete())
	}
	if rep.Equations != 0 {
		t.Errorf("Equations = %d, want 0 for an already-expired deadline", rep.Equations)
	}
	if len(rep.Completeness) != 2 {
		t.Errorf("Completeness has %d groups, want 2", len(rep.Completeness))
	}
	for _, gc := range rep.Completeness {
		if gc.Complete || gc.MasksScanned != 0 {
			t.Errorf("group %d: %+v, want unscanned", gc.Group, gc)
		}
	}
	if len(rep.Violations) != 0 {
		t.Errorf("spurious violations: %v", rep.Violations)
	}
	if !aud.Stats().Incomplete {
		t.Error("stats record not marked incomplete")
	}
}

func TestAuditContextBackgroundMatchesAudit(t *testing.T) {
	// AuditContext(Background) and the legacy Audit must be byte-for-byte
	// identical — Audit is a thin wrapper.
	aud := example1Auditor(t)
	want, err := aud.Audit()
	if err != nil {
		t.Fatal(err)
	}
	got, err := aud.AuditContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AuditContext diverges from Audit:\n got %+v\nwant %+v", got, want)
	}
	if !want.Complete() || want.GroupsComplete() != 2 {
		t.Errorf("uncancelled audit not complete: %+v", want.Completeness)
	}
}

func TestAuditorResumeAfterCancel(t *testing.T) {
	// Cancelling an audit must not poison the auditor: a later audit with
	// a fresh context produces exactly the uncancelled report.
	aud := example1Auditor(t)
	want, err := aud.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aud.AuditContext(cancelledCtx()); !errors.Is(err, drmerr.ErrAuditIncomplete) {
		t.Fatalf("cancelled audit err = %v", err)
	}
	got, err := aud.AuditContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed audit diverges:\n got %+v\nwant %+v", got, want)
	}
}

func TestTypedErrorsAcrossCore(t *testing.T) {
	aud := example1Auditor(t)
	if _, err := aud.Headroom(0); !errors.Is(err, drmerr.ErrInvalidInput) {
		t.Errorf("empty set err = %v, want ErrInvalidInput", err)
	}
	if _, err := aud.Headroom(bitset.MaskOf(7)); !errors.Is(err, drmerr.ErrCorpusMismatch) {
		t.Errorf("out-of-corpus err = %v, want ErrCorpusMismatch", err)
	}
	// {L1,L3} spans the two groups — impossible under Corollary 1.1.
	if _, err := aud.Headroom(bitset.MaskOf(0, 2)); !errors.Is(err, drmerr.ErrCrossGroup) {
		t.Errorf("cross-group err = %v, want ErrCrossGroup", err)
	}

	// Divide's shape errors classify as corpus mismatches.
	ex, tree, gr, a := example1Setup(t)
	_ = ex
	if _, err := Divide(tree, gr, a[:3]); !errors.Is(err, drmerr.ErrCorpusMismatch) {
		t.Errorf("short aggregates err = %v, want ErrCorpusMismatch", err)
	}
	if _, err := ValidateParallel(nil, 0); !errors.Is(err, drmerr.ErrInvalidInput) {
		t.Errorf("workers=0 err = %v, want ErrInvalidInput", err)
	}
}

func TestCancelledValidationSoundQuick(t *testing.T) {
	// Property (over random grouped instances): a validation run under an
	// already-cancelled context returns promptly with zero masks scanned
	// and no violations — never a spurious one — and re-running the same
	// trees with a fresh context reproduces the uncancelled report
	// exactly.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gr, records, a := randomGroupedInstance(r)
		tree, err := vtree.BuildRecords(gr.N, records)
		if err != nil {
			return false
		}
		trees, err := Divide(tree, gr, a)
		if err != nil {
			return false
		}
		partial, err := ValidateParallelContext(cancelledCtx(), trees, 3)
		if !errors.Is(err, drmerr.ErrAuditIncomplete) {
			return false
		}
		if partial.Equations != 0 || len(partial.Violations) != 0 || partial.GroupsComplete() != 0 {
			return false
		}
		want, err := ValidateParallel(trees, 3)
		if err != nil {
			return false
		}
		got, err := ValidateParallelContext(context.Background(), trees, 3)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
