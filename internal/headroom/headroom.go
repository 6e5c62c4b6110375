// Package headroom maintains the per-group admission cache that turns
// online issuance from a full validation-tree walk into one min cut over
// the group's observed sets.
//
// Background. An issuance with belongs-to set B is aggregate-valid iff
// its count fits under min over S ⊇ B of slack(S) = A[S] − C⟨S⟩
// (vtree.Headroom). Evaluated naively that is 2^(N−|B|) equations, each a
// tree walk — fine for batch audits, fatal on a serving hot path. Two
// observations make the cache cheap:
//
//  1. Group decomposition (Corollary 1.1). Instance-valid belongs-to
//     sets never span overlap groups, so C⟨S⟩ splits additively across
//     groups and the global minimum decomposes into
//
//     Headroom(B) = localMin_k0(B) + Σ_{k≠k0} deficit_k
//
//     where k0 is B's group, localMin_k0(B) ranges over supersets of B
//     inside the group, and deficit_k = min(0, min slack of group k). The
//     deficit term is zero unless a recovered log already violates
//     another group, preserving exact equivalence with the
//     full-universe walk even then.
//
//  2. One min cut per check. Inside a group, slack(S) is a modular term
//     minus a coverage sum over the observed sets, so localMin(B) is a
//     maximum-weight-closure problem that one s–t min cut over the
//     observed sets and the licenses of their span answers exactly
//     (cut.go). The cache keeps only the net count per observed set; a
//     check is one cut and an accepted admission one count increment.
//
// Two facts keep every other update O(1) (DESIGN §10): an accepted Admit
// never changes its group's deficit, and Credit, Release and TopUp only
// raise slacks, so a zero deficit stays zero and only a negative one —
// a recovered violating log — is recomputed, with one cut.
//
// Concurrency. Admission is Admit (check + reserve under the group
// lock), then the caller appends to its log and calls Confirm, or
// Release to roll back a failed append. The pending counter lets Verify
// (see verify.go) distinguish a quiescent cache from one with reserved
// but not-yet-logged records.
package headroom

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/logstore"
	"repro/internal/overlap"
	"repro/internal/trace"
)

// unbounded is the min slack of a group with no active equations.
const unbounded = int64(math.MaxInt64)

// Cache is the admission cache for one corpus. All methods are safe for
// concurrent use.
type Cache struct {
	// mu guards topology: grouping, aggs, and the groups slice. Admission
	// takes it shared; TopUp, Rebuild, and Verify take it exclusively.
	mu       sync.RWMutex
	n        int
	grouping overlap.Grouping
	aggs     []int64
	groupOf  []int
	groups   []*group
	// pending counts admitted-but-unconfirmed reservations (records the
	// cache has applied that the issuance log may not hold yet).
	pending atomic.Int64
}

// group is one overlap component's slack state. deficit is atomic so
// admissions in other groups read it without taking this group's lock;
// everything else is guarded by mu.
type group struct {
	mu      sync.Mutex
	members bitset.Mask
	// sets and cnt hold the net count (issues minus revokes and expiries)
	// of every observed belongs-to set — the compacted ledger restricted
	// to this group, and the only slack state the cache keeps. index maps
	// a set to its position. Counts are always positive: a set whose net
	// count returns to zero is pruned, so the span matches what a fresh
	// build from the log derives. total is Σ cnt.
	sets  []bitset.Mask
	cnt   []int64
	index map[bitset.Mask]int
	total int64
	// xfer sums cumulative transferred counts per set — lifecycle
	// bookkeeping the engine's transfer-cap policy reads. Transfers do
	// not move slack.
	xfer map[bitset.Mask]int64
	// span is the union of the observed sets: licenses outside it only
	// raise A[S], never C⟨S⟩.
	span bitset.Mask
	// net is the reusable cut network over sets and span.
	net flowNet
	// deficit is min(0, smallest slack of any equation in the group).
	deficit atomic.Int64
	// rejections counts admissions this group turned away (count >
	// room) over the cache's lifetime — the per-group signal behind the
	// heavy-hitter rejection ranking and the /v1/headroom summaries.
	rejections atomic.Int64
}

// Build replays the issuance log into a fresh cache for the given
// grouping and aggregate array — the warm-up path, used both at first
// online issuance and when recovery reopens a corpus over a WAL
// (ForEach replays snapshot + tail). A record whose set spans groups
// cannot arise from instance-valid issuance and fails the build with a
// KindCrossGroup error.
func Build(ctx context.Context, grouping overlap.Grouping, aggs []int64, log logstore.Store) (*Cache, error) {
	ctx, sp := trace.Start(ctx, "headroom.build")
	c, err := build(ctx, grouping, aggs, log)
	if sp != nil {
		sp.SetInt("groups", int64(grouping.NumGroups()))
		sp.Fail(err)
		sp.End()
	}
	return c, err
}

func build(ctx context.Context, grouping overlap.Grouping, aggs []int64, log logstore.Store) (*Cache, error) {
	c, err := newCache(grouping, aggs)
	if err != nil {
		return nil, err
	}
	net := make(map[bitset.Mask]int64)
	xfer := make(map[bitset.Mask]int64)
	err = logstore.ForEachContext(ctx, log, func(r logstore.Record) error {
		if _, err := c.route(r.Set); err != nil {
			return err
		}
		net[r.Set] += r.Effective()
		if r.Kind == logstore.KindTransfer {
			xfer[r.Set] += r.Count
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := c.load(net, xfer); err != nil {
		return nil, err
	}
	M.Rebuilds.Inc()
	M.Groups.Set(int64(len(c.groups)))
	return c, nil
}

// newCache allocates the skeleton: groups, routing table, aggregate copy.
func newCache(grouping overlap.Grouping, aggs []int64) (*Cache, error) {
	if err := grouping.Validate(); err != nil {
		return nil, drmerr.Wrap(drmerr.KindCorpusMismatch, "headroom.build", err)
	}
	if len(aggs) != grouping.N {
		return nil, drmerr.New(drmerr.KindCorpusMismatch, "headroom.build",
			"headroom: %d aggregates for %d licenses", len(aggs), grouping.N)
	}
	for i, a := range aggs {
		if a < 0 {
			return nil, drmerr.New(drmerr.KindCorpusMismatch, "headroom.build",
				"headroom: negative aggregate %d for license %d", a, i)
		}
	}
	c := &Cache{
		n:        grouping.N,
		grouping: grouping,
		aggs:     append([]int64(nil), aggs...),
		groupOf:  make([]int, grouping.N),
		groups:   make([]*group, len(grouping.Groups)),
	}
	for k, gr := range grouping.Groups {
		c.groups[k] = &group{
			members: gr.Members,
			index:   make(map[bitset.Mask]int),
			xfer:    make(map[bitset.Mask]int64),
		}
		gr.Members.ForEach(func(e int) bool {
			c.groupOf[e] = k
			return true
		})
	}
	return c, nil
}

// load routes net and transfer totals into the groups and derives each
// group's deficit with one cut. Sets whose net count is zero contribute
// to no equation and are not observed. A negative net count means debits
// outran credits, which a sound store refuses; the closure argument
// behind the cut needs non-negative counts, so it fails the build.
func (c *Cache) load(net, xfer map[bitset.Mask]int64) error {
	for set, n := range net {
		if n == 0 {
			continue
		}
		if n < 0 {
			return drmerr.New(drmerr.KindLedgerUnsound, "headroom.build",
				"headroom: set %v has negative net count %d", set, n)
		}
		g, err := c.route(set)
		if err != nil {
			return err
		}
		g.add(set, n)
	}
	for set, n := range xfer {
		g, err := c.route(set)
		if err != nil {
			return err
		}
		g.xfer[set] += n
	}
	for _, g := range c.groups {
		g.deficit.Store(c.deficitLocked(g))
	}
	return nil
}

// Rebuild re-derives every group's state for a changed corpus (new
// licenses, merged groups, changed aggregates) from the counts the cache
// already holds — no log replay. Observed sets are re-routed under the
// new grouping, so group merges and splits-by-growth are handled
// uniformly.
func (c *Cache) Rebuild(ctx context.Context, grouping overlap.Grouping, aggs []int64) error {
	_, sp := trace.Start(ctx, "headroom.rebuild")
	err := c.rebuild(grouping, aggs)
	if sp != nil {
		sp.SetInt("groups", int64(grouping.NumGroups()))
		sp.Fail(err)
		sp.End()
	}
	return err
}

func (c *Cache) rebuild(grouping overlap.Grouping, aggs []int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	fresh, err := newCache(grouping, aggs)
	if err != nil {
		return err
	}
	net := make(map[bitset.Mask]int64)
	xfer := make(map[bitset.Mask]int64)
	for _, old := range c.groups {
		old.mu.Lock()
		for i, set := range old.sets {
			net[set] = old.cnt[i]
		}
		for set, n := range old.xfer {
			xfer[set] = n
		}
		old.mu.Unlock()
	}
	if err := fresh.load(net, xfer); err != nil {
		return err
	}
	c.n = fresh.n
	c.grouping = fresh.grouping
	c.aggs = fresh.aggs
	c.groupOf = fresh.groupOf
	c.groups = fresh.groups
	M.Rebuilds.Inc()
	M.Groups.Set(int64(len(c.groups)))
	return nil
}

// route returns the group owning set, or a typed error if the set is
// outside the universe or spans groups. Callers hold at least c.mu.RLock.
func (c *Cache) route(set bitset.Mask) (*group, error) {
	if set.Empty() {
		return nil, drmerr.New(drmerr.KindInvalidInput, "headroom.route", "headroom: empty belongs-to set")
	}
	if !set.SubsetOf(bitset.FullMask(c.n)) {
		return nil, drmerr.New(drmerr.KindCorpusMismatch, "headroom.route",
			"headroom: set %v outside universe of %d licenses", set, c.n)
	}
	g := c.groups[c.groupOf[set.Min()]]
	if !set.SubsetOf(g.members) {
		return nil, drmerr.New(drmerr.KindCrossGroup, "headroom.route",
			"headroom: set %v spans overlap groups", set)
	}
	return g, nil
}

// aggSum is A[m]: the summed budgets of the licenses in m.
func (c *Cache) aggSum(m bitset.Mask) int64 {
	var total int64
	m.ForEach(func(e int) bool {
		total += c.aggs[e]
		return true
	})
	return total
}

// count returns set's net count, 0 when unobserved. Caller holds g.mu.
func (g *group) count(set bitset.Mask) int64 {
	if i, ok := g.index[set]; ok {
		return g.cnt[i]
	}
	return 0
}

// add adds delta to set's net count. A newly observed set joins the
// sets and the span; a set whose count returns to zero is pruned and the
// span re-derived from the survivors. Either reshapes the cut network.
// Caller holds g.mu and keeps the count non-negative.
func (g *group) add(set bitset.Mask, delta int64) {
	g.total += delta
	i, ok := g.index[set]
	if !ok {
		g.index[set] = len(g.sets)
		g.sets = append(g.sets, set)
		g.cnt = append(g.cnt, delta)
		g.span = g.span.Union(set)
		g.net.current = false
		return
	}
	if g.cnt[i] += delta; g.cnt[i] != 0 {
		return
	}
	last := len(g.sets) - 1
	g.sets[i], g.cnt[i] = g.sets[last], g.cnt[last]
	g.index[g.sets[i]] = i
	delete(g.index, set)
	g.sets, g.cnt = g.sets[:last], g.cnt[:last]
	g.span = 0
	for _, s := range g.sets {
		g.span = g.span.Union(s)
	}
	g.net.current = false
}

// raisedLocked restores g's deficit after slacks only rose (a credit,
// rollback, or budget top-up): a zero deficit stays zero, and only a
// negative one needs a fresh cut. Caller holds g.mu.
func (c *Cache) raisedLocked(g *group) {
	if g.deficit.Load() < 0 {
		g.deficit.Store(c.deficitLocked(g))
	}
}

// deficitExcept sums the deficits of every group but skip — the
// cross-group correction that keeps cached headroom exactly equal to the
// full-universe walk when a recovered log already violates other groups.
func (c *Cache) deficitExcept(skip *group) int64 {
	var total int64
	for _, g := range c.groups {
		if g != skip {
			total += g.deficit.Load()
		}
	}
	return total
}

// Headroom returns the largest count issuable against set without
// violating any validation equation — the cached equivalent of
// vtree.Headroom over the full corpus. It does not reserve anything.
func (c *Cache) Headroom(set bitset.Mask) (int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, err := c.route(set)
	if err != nil {
		return 0, err
	}
	g.mu.Lock()
	local := c.localMinLocked(g, set)
	g.mu.Unlock()
	return local + c.deficitExcept(g), nil
}

// Admit atomically checks and reserves one issuance: if count fits under
// the cached headroom for set, the set's net count rises by count and ok
// is true; otherwise nothing changes and the rejecting headroom is
// returned. After a successful Admit the caller must append the record
// to its log and call Confirm, or Release to undo a failed append. The
// check and the increment run under one group lock, so concurrent
// admissions can never jointly overshoot a budget.
func (c *Cache) Admit(ctx context.Context, set bitset.Mask, count int64) (room int64, ok bool, err error) {
	start := time.Now()
	defer M.CheckSeconds.ObserveSince(start)
	M.Checks.Inc()
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, err := c.route(set)
	if err != nil {
		return 0, false, err
	}
	if count <= 0 {
		return 0, false, drmerr.New(drmerr.KindInvalidInput, "headroom.admit",
			"headroom: non-positive count %d", count)
	}
	g.mu.Lock()
	_, csp := trace.Start(ctx, "headroom.check")
	room = c.localMinLocked(g, set) + c.deficitExcept(g)
	if csp != nil {
		csp.SetInt("headroom", room)
		csp.End()
	}
	if count > room {
		g.rejections.Add(1)
		g.mu.Unlock()
		M.Rejected.Inc()
		return room, false, nil
	}
	_, asp := trace.Start(ctx, "headroom.apply")
	// count ≤ room ≤ localMin(set) keeps every superset of set at slack
	// ≥ 0 and moves no other slack, so the group's deficit is unchanged.
	g.add(set, count)
	if asp != nil {
		asp.SetInt("count", count)
		asp.End()
	}
	g.mu.Unlock()
	c.pending.Add(1)
	M.Admitted.Inc()
	return room, true, nil
}

// Confirm marks the most recent Admit as durably logged.
func (c *Cache) Confirm() { c.pending.Add(-1) }

// Pending returns the number of admitted-but-unconfirmed reservations.
func (c *Cache) Pending() int64 { return c.pending.Load() }

// Release rolls back an admitted-but-unlogged reservation (the log
// append failed): the count is withdrawn and the reservation retired.
// The rolled-back record may have been the only one observing some
// license, so the span shrinks with it, matching what a verification
// rebuild derives from the log.
func (c *Cache) Release(set bitset.Mask, count int64) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, err := c.route(set)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer func() {
		g.mu.Unlock()
		c.pending.Add(-1)
	}()
	g.add(set, -min(count, g.count(set)))
	c.raisedLocked(g)
	return nil
}

// Hold registers an in-flight lifecycle mutation (a revoke, expiry, or
// transfer between its log append and the matching cache update) so
// Verify treats the cache as non-quiescent. Every Hold must be paired
// with a Confirm.
func (c *Cache) Hold() { c.pending.Add(1) }

// Credit applies a durably-logged debit record (revoke or expire) to
// the cache: the set's net count drops by count, which raises slack for
// every equation S ⊇ set. Callers bracket the log append and the Credit
// with Hold/Confirm so Verify never observes the halfway state. A count
// exceeding the cached net count means the cache has diverged from the
// log (the store would have refused the append) and is reported as
// KindHeadroomDivergence.
func (c *Cache) Credit(ctx context.Context, set bitset.Mask, count int64) error {
	_, sp := trace.Start(ctx, "headroom.credit")
	err := c.credit(set, count)
	if sp != nil {
		sp.SetInt("count", count)
		sp.Fail(err)
		sp.End()
	}
	return err
}

func (c *Cache) credit(set bitset.Mask, count int64) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, err := c.route(set)
	if err != nil {
		return err
	}
	if count <= 0 {
		return drmerr.New(drmerr.KindInvalidInput, "headroom.credit",
			"headroom: non-positive credit %d", count)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if cur := g.count(set); count > cur {
		return drmerr.New(drmerr.KindHeadroomDivergence, "headroom.credit",
			"headroom: credit of %d against cached net count %d for set %v", count, cur, set)
	}
	g.add(set, -count)
	c.raisedLocked(g)
	return nil
}

// ApplyTransfer records a durably-logged transfer against the cache's
// per-set transfer totals. Slack is untouched — transfers move
// permissions between consumers, not against the corpus.
func (c *Cache) ApplyTransfer(set bitset.Mask, count int64) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, err := c.route(set)
	if err != nil {
		return err
	}
	if count <= 0 {
		return drmerr.New(drmerr.KindInvalidInput, "headroom.transfer",
			"headroom: non-positive transfer %d", count)
	}
	g.mu.Lock()
	g.xfer[set] += count
	g.mu.Unlock()
	return nil
}

// Transferred returns the cumulative transferred total for set (0 if
// the set routes but has no transfers) — the number the engine's
// transfer-cap policy compares against.
func (c *Cache) Transferred(set bitset.Mask) (int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, err := c.route(set)
	if err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.xfer[set], nil
}

// NetCount returns the cached net outstanding count for set (exact-set
// count, not the subset-closed C⟨S⟩) — what revokes and transfers are
// bounded by.
func (c *Cache) NetCount(set bitset.Mask) (int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, err := c.route(set)
	if err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.count(set), nil
}

// TopUp raises license i's budget by extra. Budgets only rise, so the
// owning group's deficit needs a cut only if it was negative.
func (c *Cache) TopUp(i int, extra int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= c.n {
		return drmerr.New(drmerr.KindInvalidInput, "headroom.topup", "headroom: license %d outside corpus", i)
	}
	if extra <= 0 {
		return drmerr.New(drmerr.KindInvalidInput, "headroom.topup", "headroom: non-positive top-up %d", extra)
	}
	c.aggs[i] += extra
	g := c.groups[c.groupOf[i]]
	g.mu.Lock()
	c.raisedLocked(g)
	g.mu.Unlock()
	return nil
}

// N returns the number of licenses the cache spans.
func (c *Cache) N() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}
