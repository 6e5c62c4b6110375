package logstore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/drmerr"
)

// writeLog writes a JSONL log with the given lines (no trailing newline
// handling — lines carry their own).
func writeLog(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "issue.log.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const threeRecords = "{\"set\":3,\"count\":800}\n{\"set\":2,\"count\":400}\n{\"set\":5,\"count\":100}\n"

// readAll replays a JSONL file with ReadFile, returning the records
// delivered before any error alongside it.
func readAll(path string) ([]Record, error) {
	var got []Record
	err := ReadFile(path, func(r Record) error { got = append(got, r); return nil })
	return got, err
}

func TestOpenFileTornTail(t *testing.T) {
	// A crashed append leaves a half-written line at the end.
	path := writeLog(t, threeRecords+"{\"set\":7,\"cou")
	got, err := readAll(path)
	if len(got) != 3 {
		t.Errorf("delivered %d records before the damage, want 3", len(got))
	}
	if !errors.Is(err, drmerr.ErrStoreCorrupt) {
		t.Fatalf("err = %v, want store corrupt", err)
	}
	var cerr *CorruptError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
	// The decoder's offset stops just past the last valid JSON value,
	// before its trailing newline.
	if cerr.Offset != int64(len(threeRecords)-1) {
		t.Errorf("Offset = %d, want %d", cerr.Offset, len(threeRecords)-1)
	}
	if cerr.Records != 3 {
		t.Errorf("Records = %d, want 3", cerr.Records)
	}
	if !cerr.Torn {
		t.Error("Torn = false, want true (no valid records after damage)")
	}
	if !strings.Contains(err.Error(), "byte offset") {
		t.Errorf("error does not name the byte offset: %v", err)
	}
}

func TestOpenFileMidLogCorruption(t *testing.T) {
	// Damage in the middle with valid records after it: not repairable by
	// truncation.
	path := writeLog(t, "{\"set\":3,\"count\":800}\n???garbage???\n{\"set\":2,\"count\":400}\n")
	_, err := readAll(path)
	var cerr *CorruptError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
	if cerr.Torn {
		t.Error("Torn = true, want false (valid records follow the damage)")
	}
	if cerr.Records != 1 {
		t.Errorf("Records = %d, want 1", cerr.Records)
	}
	// RepairFile must refuse: truncating would drop the trailing record.
	if _, rerr := RepairFile(path); !errors.Is(rerr, drmerr.ErrStoreCorrupt) {
		t.Errorf("RepairFile on mid-log corruption: err = %v, want store corrupt", rerr)
	}
}

func TestOpenFileInvalidRecordIsCorrupt(t *testing.T) {
	// Structurally valid JSON that fails Record.Validate is corruption
	// too: the log never contains such rows by construction.
	path := writeLog(t, "{\"set\":3,\"count\":800}\n{\"set\":0,\"count\":5}\n")
	_, err := readAll(path)
	if !errors.Is(err, drmerr.ErrStoreCorrupt) {
		t.Fatalf("err = %v, want store corrupt", err)
	}
}

func TestRepairFileTornTail(t *testing.T) {
	path := writeLog(t, threeRecords+"{\"set\":7,\"cou")
	removed, err := RepairFile(path)
	if err != nil {
		t.Fatalf("RepairFile: %v", err)
	}
	if removed != int64(len("{\"set\":7,\"cou")) {
		t.Errorf("removed = %d, want %d", removed, len("{\"set\":7,\"cou"))
	}
	got, err := readAll(path)
	if err != nil {
		t.Fatalf("ReadFile after repair: %v", err)
	}
	if len(got) != 3 {
		t.Errorf("records after repair = %d, want 3", len(got))
	}
	// The repaired file is newline-terminated: appended JSONL lands on a
	// fresh line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteAll(f, []Record{{Set: 9, Count: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = readAll(path)
	if err != nil {
		t.Fatalf("re-read after repair+append: %v", err)
	}
	if len(got) != 4 || got[3] != (Record{Set: 9, Count: 7}) {
		t.Errorf("records after repair+append = %+v", got)
	}
}

func TestRepairFileCleanLogUntouched(t *testing.T) {
	path := writeLog(t, threeRecords)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	removed, err := RepairFile(path)
	if err != nil || removed != 0 {
		t.Fatalf("RepairFile on clean log = %d, %v; want 0, nil", removed, err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("RepairFile modified a clean log")
	}
}

func TestCompactFileTornTailFailsCleanly(t *testing.T) {
	content := threeRecords + "{\"set\":7,\"cou"
	path := writeLog(t, content)
	if _, _, err := CompactFile(path); !errors.Is(err, drmerr.ErrStoreCorrupt) {
		t.Fatalf("CompactFile on torn log: err = %v, want store corrupt", err)
	}
	// The damaged file is left exactly as it was — no partial rewrite, no
	// temp-file litter.
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != content {
		t.Error("CompactFile modified the damaged log")
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after failed compaction, want 1", len(entries))
	}
}

// TestOpenFileTruncatedAtEveryOffset is the JSONL analogue of the WAL
// crash sweep: a valid log cut at every byte offset must either read as a
// record-count prefix or fail with a typed, repairable torn-tail error —
// and after RepairFile it must always read cleanly.
func TestOpenFileTruncatedAtEveryOffset(t *testing.T) {
	full := []byte(threeRecords + "{\"set\":6,\"count\":123}\n")
	dir := t.TempDir()
	for cut := 0; cut <= len(full); cut++ {
		path := filepath.Join(dir, "log.jsonl")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := readAll(path)
		if len(got) > 4 {
			t.Fatalf("cut %d: invented records: %d", cut, len(got))
		}
		if err == nil {
			continue
		}
		var cerr *CorruptError
		if !errors.Is(err, drmerr.ErrStoreCorrupt) || !errors.As(err, &cerr) {
			t.Fatalf("cut %d: err = %v, want typed *CorruptError", cut, err)
		}
		if !cerr.Torn {
			t.Fatalf("cut %d: truncation classified as mid-log corruption", cut)
		}
		if _, err := RepairFile(path); err != nil {
			t.Fatalf("cut %d: RepairFile: %v", cut, err)
		}
		if _, err := readAll(path); err != nil {
			t.Fatalf("cut %d: ReadFile after repair: %v", cut, err)
		}
	}
}

// FuzzReadFile feeds arbitrary file contents — truncated logs, garbage,
// blank lines — to the file-level reader: it must never panic, and every
// record it delivers before failing must be valid.
func FuzzReadFile(f *testing.F) {
	f.Add([]byte(threeRecords))
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(threeRecords + "{\"set\":7,\"cou"))
	f.Add([]byte("{\"set\":3,\"count\":800}\n???\n{\"set\":2,\"count\":400}\n"))
	f.Add([]byte("not json at all"))
	f.Add([]byte("{\"set\":0,\"count\":0}\n"))
	f.Add([]byte("{\"set\":1,\"count\":1}")) // no trailing newline: still one record
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var records []Record
		err := ReadFile(path, func(r Record) error {
			records = append(records, r)
			return nil
		})
		for _, r := range records {
			if r.Validate() != nil {
				t.Fatalf("ReadFile delivered invalid record %+v", r)
			}
		}
		if err != nil {
			return
		}
		// An accepted log needs no repair.
		if removed, rerr := RepairFile(path); rerr != nil || removed != 0 {
			t.Fatalf("clean log repaired: removed=%d err=%v", removed, rerr)
		}
	})
}
