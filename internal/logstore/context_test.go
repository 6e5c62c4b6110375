package logstore

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bitset"
	"repro/internal/drmerr"
)

func TestForEachContextCancelled(t *testing.T) {
	m := NewMem(0)
	for i := 0; i < 5; i++ {
		if err := m.Append(Record{Set: bitset.MaskOf(i % 3), Count: 1}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visited := 0
	err := ForEachContext(ctx, m, func(Record) error { visited++; return nil })
	if !errors.Is(err, drmerr.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("context cause lost: %v", err)
	}
	if visited != 0 {
		t.Errorf("visited %d records under a cancelled context, want 0", visited)
	}
}

func TestForEachContextBackgroundVisitsAll(t *testing.T) {
	m := NewMem(0)
	for i := 0; i < 7; i++ {
		if err := m.Append(Record{Set: bitset.MaskOf(i % 4), Count: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	visited := 0
	if err := ForEachContext(context.Background(), m, func(Record) error { visited++; return nil }); err != nil {
		t.Fatal(err)
	}
	if visited != 7 {
		t.Errorf("visited %d, want 7", visited)
	}
}

func TestReadCorruptIsTyped(t *testing.T) {
	_, err := readAll(writeLog(t, "{\"set\":3,\"count\":5}\nnot json\n"))
	if !errors.Is(err, drmerr.ErrStoreCorrupt) {
		t.Errorf("decode err = %v, want ErrStoreCorrupt", err)
	}
	_, err = readAll(writeLog(t, "{\"set\":0,\"count\":5}\n"))
	if !errors.Is(err, drmerr.ErrStoreCorrupt) {
		t.Errorf("invalid-record err = %v, want ErrStoreCorrupt", err)
	}
}

func TestAppendInvalidIsTyped(t *testing.T) {
	if err := NewMem(0).Append(Record{}); !errors.Is(err, drmerr.ErrInvalidInput) {
		t.Errorf("Mem append err = %v, want ErrInvalidInput", err)
	}
}
