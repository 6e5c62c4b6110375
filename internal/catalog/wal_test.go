package catalog

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/license"
	"repro/internal/wal"
)

var walCfg = Config{Mode: engine.ModeOnline}

func TestWALBackendReopenResumesState(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cat")
	c, err := OpenWith(dir, walCfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := testCorpus(t, "m", license.Play, 100)
	e, err := c.Add(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "m__play.wal")); err != nil {
		t.Fatalf("WAL dir missing: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Dist.Issue(license.Usage, usageRect(t, corpus, 1, 3), 20); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenWith(dir, walCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	e2 := c2.Get("m", license.Play)
	if e2 == nil {
		t.Fatal("entry lost on reopen")
	}
	if e2.Log.Len() != 3 {
		t.Errorf("reopened log Len = %d, want 3", e2.Log.Len())
	}
	if st := e2.Dist.Stats(); st.Issued != 3 || st.IssuedCounts != 60 {
		t.Errorf("reopened stats = %+v, want the 3 recovered issues of 60", st)
	}
	// 100 − 60 issued leaves 40 of headroom: online mode enforces it.
	r := usageRect(t, e2.Corpus, 1, 3)
	if _, err := e2.Dist.Issue(license.Usage, r, 41); err == nil {
		t.Error("over-issuance accepted after WAL reopen")
	}
	if _, err := e2.Dist.Issue(license.Usage, r, 40); err != nil {
		t.Errorf("exact headroom rejected after WAL reopen: %v", err)
	}
}

// TestBackendAutoDetect: a catalog entry still holding a JSONL log is
// refused with the migration command, never shadowed by a fresh WAL.
func TestBackendAutoDetect(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cat")
	c, err := Open(dir, engine.ModeOnline)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(testCorpus(t, "movie", license.Play, 50)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Replace the entry's WAL with a JSONL log, as a pre-WAL catalog
	// directory holds it.
	stem := filepath.Join(dir, "movie__play")
	if err := os.RemoveAll(stem + walSuffix); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stem+logSuffix, []byte("{\"set\":1,\"count\":5}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, engine.ModeOnline)
	if err == nil || !strings.Contains(err.Error(), "-migrate-wal") {
		t.Fatalf("open over a JSONL entry: err = %v, want the -migrate-wal hint", err)
	}
	if _, serr := os.Stat(stem + walSuffix); !os.IsNotExist(serr) {
		t.Errorf("refused open created %s (stat err %v)", stem+walSuffix, serr)
	}
}

func TestSnapshotAll(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cat")
	c, err := OpenWith(dir, walCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	corpus := testCorpus(t, "m", license.Play, 100)
	e, err := c.Add(corpus)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := e.Dist.Issue(license.Usage, usageRect(t, corpus, 1, 3), 10); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := c.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	info, ok := infos[e]
	if !ok {
		t.Fatal("no snapshot info for WAL entry")
	}
	if info.Seq != 4 {
		t.Errorf("snapshot Seq = %d, want 4", info.Seq)
	}
	if e.Log.SnapshotSeq() != 4 {
		t.Errorf("store SnapshotSeq = %d, want 4", e.Log.SnapshotSeq())
	}
}

// TestWALConfigPropagates checks Config.WAL reaches the opened store.
func TestWALConfigPropagates(t *testing.T) {
	cfg := walCfg
	cfg.WAL = wal.Options{SnapshotEvery: 2}
	c, err := OpenWith(filepath.Join(t.TempDir(), "cat"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	corpus := testCorpus(t, "m", license.Play, 100)
	e, err := c.Add(corpus)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Dist.Issue(license.Usage, usageRect(t, corpus, 1, 3), 10); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Log.SnapshotSeq(); got != 4 {
		t.Errorf("SnapshotSeq = %d, want 4 (auto-snapshot every 2)", got)
	}
	st := e.Log.RecoveryStats()
	if st.SnapshotRecords != 0 || st.TailRecords != 0 || st.TruncatedBytes != 0 {
		t.Errorf("fresh store has nonzero recovery stats: %+v", st)
	}
}
