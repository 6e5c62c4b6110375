// Replica support: a distributor serving a log-shipped WAL mirror runs
// read-only — audits, headroom queries, and stats stay live while every
// mutation is refused with a typed KindReadOnly error pointing writers
// at the leader — and keeps its derived state warm by applying each
// shipped batch's decoded records to the stats counters and the headroom
// cache in place, so promotion (SetReadOnly(false)) serves its first
// issuance with no warm-up replay.

package engine

import (
	"context"

	"repro/internal/drmerr"
	"repro/internal/logstore"
)

// SetReadOnly flips the distributor's replica gate: while set, Issue,
// Revoke, Transfer, and ExpireSweep refuse with KindReadOnly. Promotion
// clears it after the follower's fetch loop drains.
func (d *Distributor) SetReadOnly(ro bool) { d.readOnly.Store(ro) }

// readOnlyErr is the shared mutation gate.
func (d *Distributor) readOnlyErr(op string) error {
	if !d.readOnly.Load() {
		return nil
	}
	return drmerr.New(drmerr.KindReadOnly, op,
		"engine: distributor %s is a read-only replica; send writes to the leader", d.name)
}

// ApplyReplicated folds records a replication fetch just ingested into
// the log (wal.IngestFrames) into the distributor's derived state: the
// stats counters always, and the headroom cache incrementally when one
// is built and fresh. The log itself is already updated — this must NOT
// append — so any cache refusal (drift between the mirror and the cache)
// falls back to marking the cache stale, and the next query replays the
// authoritative log. Safe to call concurrently with read traffic.
func (d *Distributor) ApplyReplicated(ctx context.Context, recs []logstore.Record) {
	for _, rec := range recs {
		d.count(rec)
		switch rec.Kind {
		case logstore.KindIssue:
			M.Issued.Inc()
			M.IssuedCounts.Add(rec.Count)
		case logstore.KindRevoke:
			M.Revoked.Inc()
			M.RevokedCounts.Add(rec.Count)
		case logstore.KindExpire:
			M.Expired.Inc()
			M.ExpiredCounts.Add(rec.Count)
		case logstore.KindTransfer:
			M.Transferred.Inc()
			M.TransferredCounts.Add(rec.Count)
		}
		d.applyReplicatedCache(ctx, rec)
	}
}

// CountRecovered folds every record of the log the distributor was
// opened over into its stats counters, so a restarted server's stats
// report the history its log holds instead of starting from zero. Call
// it once, before serving; the process metrics (M) are left alone.
func (d *Distributor) CountRecovered(ctx context.Context) error {
	return logstore.ForEachContext(ctx, d.log, func(rec logstore.Record) error {
		d.count(rec)
		return nil
	})
}

// count folds one log record into the stats counters.
func (d *Distributor) count(rec logstore.Record) {
	switch rec.Kind {
	case logstore.KindIssue:
		d.issued.Add(1)
		d.issuedCounts.Add(rec.Count)
	case logstore.KindRevoke:
		d.revoked.Add(1)
		d.revokedCounts.Add(rec.Count)
	case logstore.KindExpire:
		d.expired.Add(1)
		d.expiredCounts.Add(rec.Count)
	case logstore.KindTransfer:
		d.transferred.Add(1)
		d.transferredCounts.Add(rec.Count)
	}
}

// applyReplicatedCache mirrors one shipped record into the headroom
// cache, exactly as the leader's online path did when it admitted it.
func (d *Distributor) applyReplicatedCache(ctx context.Context, rec logstore.Record) {
	d.mu.Lock()
	cache := d.cache
	fresh := cache != nil && !d.cacheDirty && !d.cacheStale
	d.mu.Unlock()
	if !fresh {
		return
	}
	switch rec.Kind {
	case logstore.KindIssue:
		_, ok, err := cache.Admit(ctx, rec.Set, rec.Count)
		if err != nil || !ok {
			// The leader admitted this record; a refusal here means the
			// cache drifted from the mirror. Replay on next use.
			d.markStale()
			return
		}
		cache.Confirm()
	case logstore.KindRevoke, logstore.KindExpire:
		cache.Hold()
		err := cache.Credit(ctx, rec.Set, rec.Count)
		cache.Confirm()
		if err != nil {
			d.markStale()
		}
	case logstore.KindTransfer:
		cache.Hold()
		err := cache.ApplyTransfer(rec.Set, rec.Count)
		cache.Confirm()
		if err != nil {
			d.markStale()
		}
	}
}
