package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/logstore"
	"repro/internal/wal"
)

func TestDurabilityGate(t *testing.T) {
	a, b := bitset.MaskOf(0), bitset.MaskOf(0, 1)
	attempted, acked := tally{}, tally{}
	attempted.add(logstore.KindIssue, a, 30)
	attempted.add(logstore.KindIssue, b, 12)
	attempted.add(logstore.KindRevoke, a, 5)
	acked.add(logstore.KindIssue, a, 20) // one 10-count issue unacknowledged
	acked.add(logstore.KindIssue, b, 12)
	acked.add(logstore.KindRevoke, a, 5)

	ok := tally{}
	ok.add(logstore.KindIssue, a, 30)
	ok.add(logstore.KindIssue, b, 12)
	ok.add(logstore.KindRevoke, a, 5)
	if err := checkDurable(acked, ok, attempted); err != nil {
		t.Fatalf("consistent tallies rejected: %v", err)
	}
	lostUnacked := tally{}
	lostUnacked.add(logstore.KindIssue, a, 20)
	lostUnacked.add(logstore.KindIssue, b, 12)
	lostUnacked.add(logstore.KindRevoke, a, 5)
	if err := checkDurable(acked, lostUnacked, attempted); err != nil {
		t.Fatalf("losing an unacknowledged op is allowed, got %v", err)
	}

	// Drop one acknowledged op from the recovered tally: the gate fails.
	dropped := tally{}
	dropped.add(logstore.KindIssue, a, 30)
	dropped.add(logstore.KindRevoke, a, 5)
	if err := checkDurable(acked, dropped, attempted); err == nil {
		t.Fatal("gate passed with an acknowledged issue missing from the recovered log")
	}
	// A record nobody sent fails it too.
	extra := tally{}
	extra.add(logstore.KindIssue, a, 30)
	extra.add(logstore.KindIssue, b, 12)
	extra.add(logstore.KindRevoke, a, 5)
	extra.add(logstore.KindTransfer, b, 1)
	if err := checkDurable(acked, extra, attempted); err == nil || !strings.Contains(err.Error(), "transfer") {
		t.Fatalf("gate accepted a transfer that was never attempted: %v", err)
	}
}

// TestRecoveredDropsOneAcknowledgedOp runs the gate against a real WAL
// that lost one acknowledged record.
func TestRecoveredDropsOneAcknowledgedOp(t *testing.T) {
	prior := []logstore.Record{{Set: bitset.MaskOf(0), Count: 100}, {Set: bitset.MaskOf(1), Count: 50}}
	run := []logstore.Record{
		{Set: bitset.MaskOf(0), Count: 10},
		{Kind: logstore.KindRevoke, Set: bitset.MaskOf(1), Count: 5},
		{Set: bitset.MaskOf(1), Count: 7},
	}
	attempted, acked := tally{}, tally{}
	for _, r := range run {
		attempted.add(r.Kind, r.Set, r.Count)
		acked.add(r.Kind, r.Set, r.Count)
	}
	for name, written := range map[string][]logstore.Record{"all": run, "dropped": run[:2]} {
		dir := filepath.Join(t.TempDir(), name)
		st, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncOS})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendBatch(append(append([]logstore.Record(nil), prior...), written...)); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := recovered(dir, prior)
		if err != nil {
			t.Fatal(err)
		}
		err = checkDurable(acked, rec, attempted)
		if name == "all" && err != nil {
			t.Fatalf("complete log rejected: %v", err)
		}
		if name == "dropped" && err == nil {
			t.Fatal("gate passed a log missing one acknowledged issue")
		}
	}
}
