package logstore

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/drmerr"
)

func TestRecordValidate(t *testing.T) {
	if err := (Record{Set: bitset.MaskOf(0), Count: 5}).Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	if err := (Record{Set: 0, Count: 5}).Validate(); err == nil {
		t.Error("empty set accepted")
	}
	if err := (Record{Set: bitset.MaskOf(0), Count: 0}).Validate(); err == nil {
		t.Error("zero count accepted")
	}
	if err := (Record{Set: bitset.MaskOf(0), Count: -3}).Validate(); err == nil {
		t.Error("negative count accepted")
	}
}

func TestMemAppendAndReplay(t *testing.T) {
	m := NewMem(4)
	recs := []Record{
		{Set: bitset.MaskOf(0, 1), Count: 800},
		{Set: bitset.MaskOf(1), Count: 400},
	}
	for _, r := range recs {
		if err := m.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
	var got []Record
	if err := m.ForEach(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if got[i] != r {
			t.Errorf("record %d = %+v, want %+v", i, got[i], r)
		}
	}
	if err := m.Append(Record{}); err == nil {
		t.Error("invalid record accepted")
	}
}

func TestMemForEachStopsOnError(t *testing.T) {
	m := NewMem(0)
	for i := 0; i < 5; i++ {
		if err := m.Append(Record{Set: bitset.MaskOf(i), Count: 1}); err != nil {
			t.Fatal(err)
		}
	}
	sentinel := os.ErrClosed
	n := 0
	err := m.ForEach(func(Record) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if err != sentinel || n != 3 {
		t.Errorf("ForEach stopped after %d with %v", n, err)
	}
}

func TestCompact(t *testing.T) {
	in := []Record{
		{Set: bitset.MaskOf(0, 1), Count: 800},
		{Set: bitset.MaskOf(1), Count: 400},
		{Set: bitset.MaskOf(0, 1), Count: 40},
	}
	out := Compact(in)
	if len(out) != 2 {
		t.Fatalf("Compact len = %d, want 2", len(out))
	}
	// Ordered by mask: {2}=0b10 < {1,2}=0b11.
	if out[0].Set != bitset.MaskOf(1) || out[0].Count != 400 {
		t.Errorf("out[0] = %+v", out[0])
	}
	if out[1].Set != bitset.MaskOf(0, 1) || out[1].Count != 840 {
		t.Errorf("out[1] = %+v", out[1])
	}
}

func TestCompactPreservesTotalQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var in []Record
		var total int64
		for i := 0; i < r.Intn(50); i++ {
			c := int64(1 + r.Intn(100))
			in = append(in, Record{Set: bitset.Mask(1 + r.Intn(255)), Count: c})
			total += c
		}
		var got int64
		for _, rec := range Compact(in) {
			got += rec.Count
		}
		return got == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// writeFile writes records as a JSONL file with WriteAll.
func writeFile(t *testing.T, path string, records []Record) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteAll(f, records); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	// Every lifecycle kind and the expiry metadata survive a JSONL file.
	path := filepath.Join(t.TempDir(), "log.jsonl")
	want := []Record{
		{Set: bitset.MaskOf(0, 1), Count: 800},
		{Set: bitset.MaskOf(4), Count: 20, Meta: Meta{Expiry: 1700000000}},
		{Kind: KindTransfer, Set: bitset.MaskOf(0, 1), Count: 30},
		{Kind: KindRevoke, Set: bitset.MaskOf(0, 1), Count: 100},
		{Kind: KindExpire, Set: bitset.MaskOf(4), Count: 20, Meta: Meta{Expiry: 1700000000}},
	}
	writeFile(t, path, want)
	var got []Record
	if err := ReadFile(path, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replay = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFileRejectsInvalid(t *testing.T) {
	// A file whose records break ledger soundness (a revoke beyond the
	// set's outstanding credits) is corrupt: the records before the bad
	// one are delivered, the bad one is not.
	path := filepath.Join(t.TempDir(), "log.jsonl")
	content := "{\"set\":3,\"count\":5}\n{\"kind\":\"revoke\",\"set\":3,\"count\":6}\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := ReadFile(path, func(Record) error { n++; return nil })
	if !errors.Is(err, drmerr.ErrStoreCorrupt) {
		t.Fatalf("err = %v, want store corrupt", err)
	}
	if n != 1 {
		t.Errorf("delivered %d records, want 1", n)
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	_, err := readAll(writeLog(t, "{\"set\":3,\"count\":5}\nnot json\n"))
	if err == nil {
		t.Error("corrupt log accepted")
	}
	// Structurally invalid records are also rejected.
	_, err = readAll(writeLog(t, "{\"set\":0,\"count\":5}\n"))
	if err == nil {
		t.Error("empty-set record accepted")
	}
}

func TestWriteAllThenRead(t *testing.T) {
	recs := []Record{
		{Set: bitset.MaskOf(0), Count: 1},
		{Set: bitset.MaskOf(0, 2), Count: 7},
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(writeLog(t, buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Errorf("round-trip = %+v", got)
	}
}

func TestWriteAllRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []Record{{Set: 0, Count: 1}}); err == nil {
		t.Error("invalid record written")
	}
}

func TestFileMemEquivalenceQuick(t *testing.T) {
	// Property: a JSONL file written with WriteAll replays through
	// ReadFile exactly what a Mem store holds after the same appends
	// (invariant 9 in DESIGN.md).
	dir := t.TempDir()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mem := NewMem(0)
		for i := 0; i < 1+r.Intn(40); i++ {
			rec := Record{Set: bitset.Mask(1 + r.Intn(1<<10)), Count: int64(1 + r.Intn(30))}
			if mem.Append(rec) != nil {
				return false
			}
		}
		want := mem.Records()
		path := filepath.Join(dir, "q.jsonl")
		file, err := os.Create(path)
		if err != nil {
			return false
		}
		if WriteAll(file, want) != nil || file.Close() != nil {
			return false
		}
		var got []Record
		if ReadFile(path, func(r Record) error { got = append(got, r); return nil }) != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCompactFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	// 100 records over 3 distinct sets.
	sets := []bitset.Mask{bitset.MaskOf(0, 1), bitset.MaskOf(1), bitset.MaskOf(2)}
	var records []Record
	var total int64
	for i := 0; i < 100; i++ {
		c := int64(1 + i%7)
		records = append(records, Record{Set: sets[i%3], Count: c})
		total += c
	}
	writeFile(t, path, records)
	before, after, err := CompactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if before != 100 || after != 3 {
		t.Errorf("compacted %d → %d, want 100 → 3", before, after)
	}
	// Totals preserved, per set.
	var back []Record
	if err := ReadFile(path, func(r Record) error { back = append(back, r); return nil }); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, r := range back {
		sum += r.Count
	}
	if sum != total {
		t.Errorf("total = %d, want %d", sum, total)
	}
	if len(back) != 3 {
		t.Errorf("re-read %d records, want 3", len(back))
	}
}

func TestCompactFileErrors(t *testing.T) {
	if _, _, err := CompactFile(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Error("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := CompactFile(path); err == nil {
		t.Error("corrupt log accepted")
	}
}
