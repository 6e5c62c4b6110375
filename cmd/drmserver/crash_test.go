package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/wal"
)

// TestDefaultFlagsCrashRecovery: under the flag defaults, every issuance
// acknowledged over HTTP survives a crash. The server is built the way
// run() builds it (openLog, newServer, the -fsync default), takes N
// issues, and is then abandoned without closing its store — no flush,
// sync, or snapshot at exit, as after kill -9. A server reopened on the
// same path must hold every acknowledged count and must not admit more
// than the crashed one would have.
func TestDefaultFlagsCrashRecovery(t *testing.T) {
	policy, interval, err := wal.ParseFsync(defaultFsync)
	if err != nil {
		t.Fatal(err)
	}
	opts := wal.Options{Fsync: policy, Interval: interval}
	path := filepath.Join(t.TempDir(), "issued.wal")
	ex := license.NewExample1()
	ctx := context.Background()

	store, err := openLog(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv, err := newServer(ex.Corpus, store, engine.ModeOnline, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	const n = 20
	acked := map[bitset.Mask]int64{}
	var ackedTotal int64
	for i := 0; i < n; i++ {
		rect := ex.Usage1.Rect
		if i%2 == 1 {
			rect = ex.Usage2.Rect
		}
		var resp issueResponse
		if code := postJSON(t, ts.URL+"/v1/issue", issueRequest{Values: rectValues(rect), Count: 1}, &resp); code != http.StatusOK {
			t.Fatalf("issue %d: status %d", i, code)
		}
		var set bitset.Mask
		for _, j := range resp.BelongsTo {
			set = set.With(j - 1)
		}
		acked[set] += resp.Count
		ackedTotal += resp.Count
	}
	if len(acked) != 2 {
		t.Fatalf("issued into %d belongs-to sets, want 2", len(acked))
	}
	before := map[bitset.Mask]int64{}
	for set := range acked {
		if before[set], err = srv.currentAPI().dist.HeadroomContext(ctx, set); err != nil {
			t.Fatal(err)
		}
	}
	ts.Close() // the crash: store and distributor are dropped as they are

	store2, err := openLog(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store2.Close() })
	recovered := map[bitset.Mask]int64{}
	if err := store2.ForEach(func(r logstore.Record) error {
		recovered[r.Set] += r.Effective()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for set, c := range acked {
		if recovered[set] < c {
			t.Errorf("set %v: recovered %d counts, %d were acknowledged", set, recovered[set], c)
		}
	}

	srv2, err := newServer(ex.Corpus, store2, engine.ModeOnline, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.routes())
	t.Cleanup(ts2.Close)
	var st statsResponse
	if code := getJSON(t, ts2.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats after restart: status %d", code)
	}
	if st.IssuedCounts < ackedTotal {
		t.Errorf("stats after restart: issued_counts = %d, want >= %d acknowledged", st.IssuedCounts, ackedTotal)
	}
	for set := range acked {
		after, err := srv2.currentAPI().dist.HeadroomContext(ctx, set)
		if err != nil {
			t.Fatal(err)
		}
		if after > before[set] {
			t.Errorf("set %v: headroom grew across the crash, %d -> %d", set, before[set], after)
		}
	}
}

// TestJSONLLogRefused: a -log that is a JSONL file is refused at startup
// with the migration command, never served from a fresh, empty WAL. (The
// catalog's .log.jsonl entries: internal/catalog TestBackendAutoDetect.)
func TestJSONLLogRefused(t *testing.T) {
	jsonl := filepath.Join(t.TempDir(), "issued.jsonl")
	if err := os.WriteFile(jsonl, []byte("{\"set\":3,\"count\":5}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openLog(jsonl, wal.Options{}); err == nil || !strings.Contains(err.Error(), "-migrate-wal") {
		t.Errorf("-log on a JSONL file: err = %v, want the -migrate-wal hint", err)
	}
}
