package wal

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/logstore"
)

// Store must satisfy the log-store and ledger-reader contracts.
var (
	_ logstore.Store        = (*Store)(nil)
	_ logstore.LedgerReader = (*Store)(nil)
)

// testRecords builds n deterministic valid records over an 8-license
// universe, with enough set variety that compaction has work to do.
func testRecords(n int) []logstore.Record {
	sets := []bitset.Mask{
		bitset.MaskOf(0), bitset.MaskOf(1), bitset.MaskOf(0, 1),
		bitset.MaskOf(2, 3), bitset.MaskOf(4), bitset.MaskOf(5, 6, 7),
	}
	out := make([]logstore.Record, n)
	for i := range out {
		out[i] = logstore.Record{Set: sets[i%len(sets)], Count: int64(1 + i%9)}
	}
	return out
}

func collect(t *testing.T, s logstore.Store) []logstore.Record {
	t.Helper()
	var recs []logstore.Record
	if err := s.ForEach(func(r logstore.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("collect: %v", err)
	}
	return recs
}

// sums aggregates records per set — the audit-relevant view, invariant
// under compaction.
func sums(recs []logstore.Record) map[bitset.Mask]int64 {
	m := make(map[bitset.Mask]int64)
	for _, r := range recs {
		m[r.Set] += r.Count
	}
	return m
}

func equalSums(a, b map[bitset.Mask]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(25)
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 25 {
		t.Errorf("Len = %d, want 25", s.Len())
	}
	if s.SyncedSeq() != 25 { // FsyncAlways is the default
		t.Errorf("SyncedSeq = %d, want 25", s.SyncedSeq())
	}
	got := collect(t, s)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Seq() != 25 || s2.Len() != 25 {
		t.Errorf("reopened Seq/Len = %d/%d, want 25/25", s2.Seq(), s2.Len())
	}
	got = collect(t, s2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reopened record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	st := s2.RecoveryStats()
	if st.TailRecords != 25 || st.SnapshotRecords != 0 || st.TruncatedBytes != 0 {
		t.Errorf("recovery stats = %+v", st)
	}
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	// Room for 4 frames per segment.
	opts := Options{SegmentBytes: segmentHeaderSize + 4*recordFrameSize}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(19)
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 5 { // ceil(19/4)
		t.Errorf("segments = %v, want 5 files", segs)
	}
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := collect(t, s2)
	if len(got) != len(want) {
		t.Fatalf("reopened %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Appending after reopen continues the same log.
	extra := logstore.Record{Set: bitset.MaskOf(3), Count: 7}
	if err := s2.Append(extra); err != nil {
		t.Fatal(err)
	}
	if s2.Seq() != 20 {
		t.Errorf("Seq after append = %d, want 20", s2.Seq())
	}
}

func TestAppendBatchMatchesAppend(t *testing.T) {
	recs := testRecords(37)
	opts := Options{SegmentBytes: segmentHeaderSize + 5*recordFrameSize}

	one := t.TempDir()
	s1, err := Open(one, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := s1.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()

	batch := t.TempDir()
	s2, err := Open(batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	r1, err := Open(one, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := Open(batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	a, b := collect(t, r1), collect(t, r2)
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFsyncInterval(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, r := range testRecords(10) {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// The group-committer must cover all 10 appends within a few periods.
	deadline := time.Now().Add(2 * time.Second)
	for s.SyncedSeq() != 10 {
		if time.Now().After(deadline) {
			t.Fatalf("SyncedSeq = %d after waiting, want 10", s.SyncedSeq())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFsyncOSExplicitSync(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncOS})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, r := range testRecords(5) {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.SyncedSeq() != 0 {
		t.Errorf("SyncedSeq = %d before Sync, want 0", s.SyncedSeq())
	}
	s.mu.Lock()
	err = s.syncLocked(context.Background())
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if s.SyncedSeq() != 5 {
		t.Errorf("SyncedSeq = %d after Sync, want 5", s.SyncedSeq())
	}
}

func TestRejectsInvalidAndClosed(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(logstore.Record{Set: 0, Count: 1}); !errors.Is(err, drmerr.ErrInvalidInput) {
		t.Errorf("empty-set append: err = %v, want invalid input", err)
	}
	if err := s.Append(logstore.Record{Set: 1, Count: 0}); !errors.Is(err, drmerr.ErrInvalidInput) {
		t.Errorf("zero-count append: err = %v, want invalid input", err)
	}
	if s.Len() != 0 {
		t.Errorf("invalid records counted: Len = %d", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(logstore.Record{Set: 1, Count: 1}); err == nil {
		t.Error("append on closed store accepted")
	}
	if err := s.Close(); err == nil {
		t.Error("double close accepted")
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(8)
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crashed append leaves a partial frame at the end.
	path := segmentPath(dir, 1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	debris := []byte{16, 0, 0, 0, 0xde, 0xad} // length prefix + partial CRC
	if _, err := f.Write(debris); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	got := collect(t, s2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if tb := s2.RecoveryStats().TruncatedBytes; tb != int64(len(debris)) {
		t.Errorf("TruncatedBytes = %d, want %d", tb, len(debris))
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if wantSize := int64(segmentHeaderSize + 8*recordFrameSize); fi.Size() != wantSize {
		t.Errorf("segment size after repair = %d, want %d", fi.Size(), wantSize)
	}
}

func TestMidLogCorruptionSurfaces(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(8) {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle of the segment: the frame's CRC
	// fails while valid frames follow — truncation would lose records, so
	// recovery must refuse.
	path := segmentPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := segmentHeaderSize + 2*recordFrameSize + frameHeaderSize + 3
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if !errors.Is(err, drmerr.ErrStoreCorrupt) {
		t.Fatalf("open over mid-log corruption: err = %v, want store corrupt", err)
	}
}

func TestHeaderlessStubDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: segmentHeaderSize + 4*recordFrameSize})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(6) // spans two segments
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash during rotation can leave the next segment as a short,
	// headerless stub.
	if err := os.WriteFile(segmentPath(dir, 3), []byte{'D', 'R', 'M'}, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if got := collect(t, s2); len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	if _, err := os.Stat(segmentPath(dir, 3)); !errors.Is(err, os.ErrNotExist) {
		t.Error("stub segment not removed")
	}
}

func TestParseFsync(t *testing.T) {
	cases := []struct {
		in     string
		policy FsyncPolicy
		d      time.Duration
		ok     bool
	}{
		{"always", FsyncAlways, 0, true},
		{"os", FsyncOS, 0, true},
		{"interval", FsyncInterval, 0, true},
		{"interval=20ms", FsyncInterval, 20 * time.Millisecond, true},
		{"interval=0s", 0, 0, false},
		{"interval=banana", 0, 0, false},
		{"never", 0, 0, false},
	}
	for _, c := range cases {
		p, d, err := ParseFsync(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseFsync(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && (p != c.policy || d != c.d) {
			t.Errorf("ParseFsync(%q) = %v, %v", c.in, p, d)
		}
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	// fsx temp litter and unrelated files must not confuse recovery.
	if err := os.WriteFile(filepath.Join(dir, ".snapshot.json.tmp-123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(logstore.Record{Set: 1, Count: 1}); err != nil {
		t.Fatal(err)
	}
}
