package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/drmerr"
	"repro/internal/logstore"
	"repro/internal/obs"
)

// smallSeg keeps 4 frames per segment so snapshots and compaction have
// several files to work over.
var smallSeg = Options{SegmentBytes: segmentHeaderSize + 4*recordFrameSize}

func TestSnapshotAndTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, smallSeg)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(30)
	for _, r := range recs[:22] {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	info, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 22 {
		t.Errorf("snapshot Seq = %d, want 22", info.Seq)
	}
	if info.Records >= 22 {
		t.Errorf("snapshot Records = %d, want compacted (< 22)", info.Records)
	}
	for _, r := range recs[22:] {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	wantSums := sums(recs)
	if !equalSums(sums(collect(t, s)), wantSums) {
		t.Error("live store sums diverge after snapshot")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, smallSeg)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if s2.Seq() != 30 {
		t.Errorf("recovered Seq = %d, want 30", s2.Seq())
	}
	st := s2.RecoveryStats()
	if st.SnapshotRecords != info.Records {
		t.Errorf("recovery SnapshotRecords = %d, want %d", st.SnapshotRecords, info.Records)
	}
	if st.TailRecords != 8 {
		t.Errorf("recovery TailRecords = %d, want 8", st.TailRecords)
	}
	if !equalSums(sums(collect(t, s2)), wantSums) {
		t.Error("recovered store sums diverge from full history")
	}
	// Appends continue past the recovered watermark.
	if err := s2.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	if s2.Seq() != 31 {
		t.Errorf("Seq after post-recovery append = %d, want 31", s2.Seq())
	}
}

func TestCompactionRetiresSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, smallSeg)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(20) // 5 segments
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	info, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Retired != 4 {
		t.Errorf("snapshot retired %d segments, want 4", info.Retired)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != s.snapSeg {
		t.Errorf("segments after compaction = %v, want only watermark segment %d", segs, s.snapSeg)
	}
	// Idempotent.
	if n, err := s.compact(); err != nil || n != 0 {
		t.Errorf("second Compact = %d, %v; want 0, nil", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, smallSeg)
	if err != nil {
		t.Fatalf("recovery after compaction failed: %v", err)
	}
	defer s2.Close()
	if s2.Seq() != 20 {
		t.Errorf("Seq = %d, want 20", s2.Seq())
	}
	if !equalSums(sums(collect(t, s2)), sums(recs)) {
		t.Error("compacted store sums diverge from full history")
	}
}

func TestAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := smallSeg
	opts.SnapshotEvery = 10
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, r := range testRecords(25) {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.SnapshotSeq(); got != 20 {
		t.Errorf("SnapshotSeq = %d, want 20 (auto-snapshot every 10)", got)
	}
}

func TestCorruptSnapshotSurfaces(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(6) {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotFile)
	for name, mutate := range map[string]func([]byte) []byte{
		"garbage":   func(b []byte) []byte { return []byte("not json at all") },
		"torn":      func(b []byte) []byte { return b[:len(b)/2] },
		"bad crc":   func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		"empty doc": func(b []byte) []byte { return []byte("{}\n") },
	} {
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(append([]byte(nil), orig...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); !errors.Is(err, drmerr.ErrStoreCorrupt) {
			t.Errorf("%s snapshot: open err = %v, want store corrupt", name, err)
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Sanity: restored snapshot opens fine.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
}

// TestCompactionErrorCounted fails the removal of a covered segment and
// checks the snapshot still installs, the failure is counted, and a
// later Compact retires what was left.
func TestCompactionErrorCounted(t *testing.T) {
	defer func(old Metrics) { M = old }(M)
	Instrument(obs.NewRegistry())
	dir := t.TempDir()
	s, err := Open(dir, smallSeg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, r := range testRecords(20) {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	stuck := segmentPath(dir, segs[1])
	defer func(old func(string) error) { removeSegment = old }(removeSegment)
	removeSegment = func(path string) error {
		if path == stuck {
			return errors.New("injected: segment busy")
		}
		return os.Remove(path)
	}
	info, err := s.Snapshot()
	if err != nil {
		t.Fatalf("snapshot with a stuck segment: %v", err)
	}
	if got := M.CompactionErrors.Value(); got != 1 {
		t.Fatalf("compaction errors = %d, want 1", got)
	}
	if _, err := s.compact(); err == nil {
		t.Fatal("Compact over a stuck segment reported no error")
	}
	if got := M.CompactionErrors.Value(); got != 2 {
		t.Fatalf("compaction errors = %d after explicit Compact, want 2", got)
	}
	removeSegment = os.Remove
	if n, err := s.compact(); err != nil || n == 0 {
		t.Fatalf("retry Compact = %d, %v; want the remaining covered segments", n, err)
	}
	left, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0] != s.snapSeg || info.Retired != 1 {
		t.Fatalf("segments after retry = %v (snapshot retired %d), want only watermark %d", left, info.Retired, s.snapSeg)
	}
}

func TestSnapshotMissingWatermarkSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, smallSeg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(10) {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	watermark := s.snapSeg
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Deleting the watermark segment loses records the snapshot does not
	// cover; recovery must refuse rather than silently shorten the log.
	if err := os.Remove(segmentPath(dir, watermark)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, smallSeg); !errors.Is(err, drmerr.ErrStoreCorrupt) {
		t.Fatalf("open without watermark segment: err = %v, want store corrupt", err)
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	info, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 || info.Seq != 0 {
		t.Errorf("empty snapshot info = %+v", info)
	}
	if err := s.Append(logstore.Record{Set: 1, Count: 2}); err != nil {
		t.Fatal(err)
	}
}

// compact retires the segment files wholly below the installed
// snapshot's watermark — the pass every snapshot ends with — and returns
// how many it removed.
func (s *Store) compact() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}
