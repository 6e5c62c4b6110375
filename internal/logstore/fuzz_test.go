package logstore

import (
	"bytes"
	"testing"
)

// FuzzRead checks the JSONL log reader never panics and that accepted
// logs round-trip through WriteAll → ReadFile unchanged (the format is
// canonical).
func FuzzRead(f *testing.F) {
	f.Add([]byte("{\"set\":3,\"count\":800}\n{\"set\":2,\"count\":400}\n"))
	f.Add([]byte(""))
	f.Add([]byte("{\"set\":0,\"count\":1}\n"))
	f.Add([]byte("{\"set\":1,\"count\":-5}\n"))
	f.Add([]byte("not json"))
	f.Add([]byte("{\"set\":18446744073709551615,\"count\":1}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := readAll(writeLog(t, string(data)))
		if err != nil {
			return
		}
		// Every record delivered to the callback is valid.
		for _, r := range records {
			if err := r.Validate(); err != nil {
				t.Fatalf("reader delivered invalid record %+v: %v", r, err)
			}
		}
		var out bytes.Buffer
		if err := WriteAll(&out, records); err != nil {
			t.Fatalf("accepted records do not re-encode: %v", err)
		}
		back, err := readAll(writeLog(t, out.String()))
		if err != nil {
			t.Fatalf("re-encoded log does not decode: %v", err)
		}
		if len(back) != len(records) {
			t.Fatalf("round-trip changed record count: %d vs %d", len(back), len(records))
		}
		for i := range back {
			if back[i] != records[i] {
				t.Fatalf("record %d changed: %+v vs %+v", i, back[i], records[i])
			}
		}
	})
}
