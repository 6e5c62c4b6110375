package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/bitset"
	"repro/internal/logstore"
	"repro/internal/wal"
)

// verify checks one response against what the generator computed: a 200
// whose echo matches the request and the corpus. Any mismatch is a
// correctness failure, not a slow operation.
func verify(in *input, o *op, r *reply) error {
	if r.err != nil {
		return fmt.Errorf("transport: %w", r.err)
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, r.body)
	}
	switch o.kind {
	case opAudit:
		var a struct {
			OK        bool  `json:"ok"`
			Complete  bool  `json:"complete"`
			Groups    int   `json:"groups"`
			Equations int64 `json:"equations"`
		}
		if err := json.Unmarshal(r.body, &a); err != nil {
			return fmt.Errorf("audit body: %w", err)
		}
		if !a.OK || !a.Complete || a.Groups != len(in.groups) || a.Equations != in.equations {
			return fmt.Errorf("audit answered ok=%v complete=%v groups=%d equations=%d, want ok complete groups=%d equations=%d",
				a.OK, a.Complete, a.Groups, a.Equations, len(in.groups), in.equations)
		}
		return nil
	default:
		var e struct {
			Op        string `json:"op"`
			BelongsTo []int  `json:"belongs_to"`
			Count     int64  `json:"count"`
		}
		if err := json.Unmarshal(r.body, &e); err != nil {
			return fmt.Errorf("%s body: %w", o.kind, err)
		}
		var set bitset.Mask
		for _, j := range e.BelongsTo {
			if j < 1 || j > bitset.MaxMaskElems {
				return fmt.Errorf("%s echoed license %d", o.kind, j)
			}
			set = set.With(j - 1)
		}
		if set != o.set || e.Count != o.count || (o.kind != opIssue && e.Op != o.kind.String()) {
			return fmt.Errorf("%s echoed op=%q belongs_to=%v count=%d, want belongs_to=%v count=%d",
				o.kind, e.Op, set, e.Count, o.set, o.count)
		}
		return nil
	}
}

// tallyKey identifies one ledger stream: a record kind against one
// belongs-to set.
type tallyKey struct {
	kind logstore.Kind
	set  bitset.Mask
}

// tally sums permission counts per ledger stream.
type tally map[tallyKey]int64

func (t tally) add(kind logstore.Kind, set bitset.Mask, count int64) {
	t[tallyKey{kind, set}] += count
}

// logKind maps a request kind to the record kind it appends.
func logKind(k opKind) logstore.Kind {
	switch k {
	case opRevoke:
		return logstore.KindRevoke
	case opTransfer:
		return logstore.KindTransfer
	default:
		return logstore.KindIssue
	}
}

// recovered reopens a WAL the server left behind and tallies what it
// holds beyond the prior log.
func recovered(walDir string, prior []logstore.Record) (tally, error) {
	st, err := wal.Open(walDir, wal.Options{Fsync: wal.FsyncOS})
	if err != nil {
		return nil, fmt.Errorf("reopening the server's WAL: %w", err)
	}
	t := tally{}
	err = st.ForEach(func(r logstore.Record) error {
		t.add(r.Kind, r.Set, r.Count)
		return nil
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("replaying the server's WAL: %w", err)
	}
	for _, r := range prior {
		t.add(r.Kind, r.Set, -r.Count)
	}
	return t, nil
}

// checkDurable asserts, per ledger stream, acknowledged ⊆ recovered ⊆
// attempted: every count the server acknowledged survived the crash, and
// nothing the benchmark never sent appeared.
func checkDurable(acked, rec, attempted tally) error {
	keys := make([]tallyKey, 0, len(attempted)+len(rec))
	for k := range attempted {
		keys = append(keys, k)
	}
	for k := range rec {
		if _, ok := attempted[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].set != keys[b].set {
			return keys[a].set < keys[b].set
		}
		return keys[a].kind < keys[b].kind
	})
	for _, k := range keys {
		if a, r, t := acked[k], rec[k], attempted[k]; a > r || r > t {
			return fmt.Errorf("%s counts for set %v: acknowledged %d, recovered %d, attempted %d",
				k.kind, k.set, a, r, t)
		}
	}
	return nil
}
