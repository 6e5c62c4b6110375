package core

import (
	"context"
	"errors"
	"math"
	"time"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vtree"
)

// Auditor bundles the full offline aggregate-validation pipeline:
// log replay → validation tree → overlap grouping → tree division →
// per-group validation. It also records how long each stage took, which is
// what the paper's fig 7/9 cost decomposition (C_T, D_T, V_T) measures.
type Auditor struct {
	corpus     *license.Corpus
	grouping   overlap.Grouping
	trees      []*GroupTree
	logRecords int

	// Workers bounds validation parallelism with a two-level budget —
	// across groups and across mask shards inside each group (see
	// ValidateParallel). 1 (the default) reproduces the paper's serial
	// algorithm exactly; any setting produces the identical report.
	Workers int

	timings Timings
	stats   obs.AuditStats
}

// Timings records per-stage wall-clock durations of the last Prepare/Audit.
type Timings struct {
	// Construction is C_T: building the undivided validation tree from
	// the log.
	Construction time.Duration
	// Grouping is the overlap-graph + component-finding time (part of the
	// paper's D_T).
	Grouping time.Duration
	// Division is the tree division + index modification time (the rest
	// of D_T).
	Division time.Duration
	// Flatten is the flat-snapshot construction time of the last Audit
	// (the SoA layout the sharded walk reads).
	Flatten time.Duration
	// Validation is V_T: evaluating all per-group equations.
	Validation time.Duration
}

// DT returns the paper's D_T: grouping plus division.
func (t Timings) DT() time.Duration { return t.Grouping + t.Division }

// NewAuditor prepares an auditor for the corpus by replaying the log and
// dividing the resulting tree. The log must only contain belongs-to sets
// over the corpus' indexes.
func NewAuditor(corpus *license.Corpus, log logstore.Store) (*Auditor, error) {
	return NewAuditorContext(context.Background(), corpus, log)
}

// NewAuditorContext is NewAuditor under a context: the log replay — the
// paper's C_T, linear in the log but the dominant cost on huge logs — is
// cancellable. A cancelled preparation returns a KindCancelled error and
// no auditor.
func NewAuditorContext(ctx context.Context, corpus *license.Corpus, log logstore.Store) (*Auditor, error) {
	a := &Auditor{corpus: corpus, Workers: 1}
	if err := a.prepare(ctx, log); err != nil {
		return nil, err
	}
	return a, nil
}

func (a *Auditor) prepare(ctx context.Context, log logstore.Store) error {
	a.logRecords = log.Len()
	start := time.Now()
	bctx, bsp := trace.Start(ctx, "core.build")
	tree, err := vtree.BuildContext(bctx, a.corpus.Len(), log)
	if bsp != nil {
		bsp.SetInt("records", int64(a.logRecords))
		bsp.Fail(err)
		bsp.End()
	}
	if err != nil {
		return drmerr.Wrapf(drmerr.KindOf(err), "core.prepare", err, "core: building validation tree")
	}
	a.timings.Construction = time.Since(start)

	start = time.Now()
	_, osp := trace.Start(ctx, "core.overlap")
	a.grouping = overlap.GroupsOf(a.corpus)
	a.timings.Grouping = time.Since(start)
	if osp != nil {
		osp.SetInt("groups", int64(len(a.grouping.Groups)))
		osp.End()
	}

	start = time.Now()
	_, dsp := trace.Start(ctx, "core.divide")
	trees, err := Divide(tree, a.grouping, a.corpus.Aggregates())
	if dsp != nil {
		dsp.Fail(err)
		dsp.End()
	}
	if err != nil {
		return err
	}
	a.timings.Division = time.Since(start)
	a.trees = trees
	return nil
}

// Grouping returns the overlap grouping of the corpus.
func (a *Auditor) Grouping() overlap.Grouping { return a.grouping }

// Trees returns the divided per-group validation trees.
func (a *Auditor) Trees() []*GroupTree { return a.trees }

// Gain returns the theoretical gain of eq. 3 for this corpus.
func (a *Auditor) Gain() float64 { return Gain(a.grouping) }

// Timings returns stage durations of the last Prepare/Audit.
func (a *Auditor) Timings() Timings { return a.timings }

// Stats returns the typed run record of the last Audit (zero before the
// first Audit). A batch audit revalidates every group, so GainRealized
// equals the grouping's theoretical G.
func (a *Auditor) Stats() obs.AuditStats { return a.stats }

// Audit runs the grouped validation and returns the merged report. It is
// AuditContext with a background context.
func (a *Auditor) Audit() (Report, error) {
	return a.AuditContext(context.Background())
}

// AuditContext runs the grouped validation under ctx. On cancellation or
// deadline expiry it returns the verified-so-far report together with an
// error matching drmerr.ErrAuditIncomplete: Report.Completeness records
// which groups were fully checked, and every reported violation is real
// (Theorem 2 — groups are independent, so a fully scanned group's
// verdict does not depend on the groups the deadline cut off). With no
// deadline the report is identical to Audit's.
func (a *Auditor) AuditContext(ctx context.Context) (Report, error) {
	workers := max(a.Workers, 1)
	start := time.Now()
	_, fsp := trace.Start(ctx, "core.flatten")
	for _, gt := range a.trees {
		if ctx.Err() != nil {
			break // ValidateParallelContext reports the cancellation
		}
		gt.Flat()
	}
	a.timings.Flatten = time.Since(start)
	if fsp != nil {
		fsp.SetInt("groups", int64(len(a.trees)))
		fsp.End()
	}

	start = time.Now()
	vctx, vsp := trace.Start(ctx, "core.validate")
	rep, err := ValidateParallelContext(vctx, a.trees, workers)
	a.timings.Validation = time.Since(start)
	if vsp != nil {
		vsp.SetInt("groups", int64(len(a.trees)))
		vsp.SetInt("workers", int64(workers))
		vsp.Fail(err)
		vsp.End()
	}
	if err != nil && !errors.Is(err, drmerr.ErrAuditIncomplete) {
		return rep, err
	}
	a.stats = a.record(rep, workers, err != nil)
	return rep, err
}

// record assembles the typed run record of one audit and publishes the
// audit-layer metrics. An incomplete run (cut short by its context)
// additionally bumps the incomplete-audit counter.
func (a *Auditor) record(rep Report, workers int, incomplete bool) obs.AuditStats {
	full := FullEquationCount(a.corpus.Len())
	realized := 0.0
	if rep.Equations > 0 {
		realized = full / float64(rep.Equations)
	}
	phases := a.phases()
	st := obs.AuditStats{
		Licenses:            a.corpus.Len(),
		LogRecords:          a.logRecords,
		Groups:              a.grouping.NumGroups(),
		EquationsChecked:    rep.Equations,
		EquationsFull:       full,
		EquationsEliminated: full - float64(rep.Equations),
		GainTheoretical:     Gain(a.grouping),
		GainRealized:        realized,
		ShardsUsed:          shardsUsed(a.trees, workers),
		GroupsRevalidated:   rep.GroupsComplete(),
		Violations:          len(rep.Violations),
		Incomplete:          incomplete,
		Phases:              phases,
	}
	M.AuditRuns.Inc()
	if incomplete {
		M.AuditsIncomplete.Inc()
	}
	M.GroupsRevalidated.Add(int64(st.GroupsRevalidated))
	M.Gain.Set(realized)
	M.PhaseBuild.Observe(time.Duration(phases.Build).Seconds())
	M.PhaseOverlap.Observe(time.Duration(phases.Overlap).Seconds())
	M.PhaseDivide.Observe(time.Duration(phases.Divide).Seconds())
	M.PhaseFlatten.Observe(time.Duration(phases.Flatten).Seconds())
	M.PhaseValidate.Observe(time.Duration(phases.Validate).Seconds())
	return st
}

// MinSlack returns the smallest slack A[S] − C⟨S⟩ over the group's
// non-empty local sets, recomputed directly from the divided tree —
// negative iff the group holds at least one violated equation. The walk
// is 2^{N_k} equations; it exists for audit-side cross-checks, not hot
// paths.
func (gt *GroupTree) MinSlack() int64 {
	min := int64(math.MaxInt64)
	full := bitset.FullMask(gt.Tree.N())
	for s := bitset.Mask(1); ; s++ {
		var av int64
		s.ForEach(func(e int) bool {
			av += gt.Aggregates[e]
			return true
		})
		if slack := av - gt.Tree.SumSubsets(s); slack < min {
			min = slack
		}
		if s == full {
			break
		}
	}
	return min
}

// ToLocal translates a global-index mask into this group's local
// indexes; it fails if any member is outside the group.
func (gt *GroupTree) ToLocal(global bitset.Mask) (bitset.Mask, error) {
	if !global.SubsetOf(gt.Group.Members) {
		return 0, drmerr.New(drmerr.KindCrossGroup, "core.tolocal",
			"core: set %v spans overlap groups", global)
	}
	var out bitset.Mask
	var err error
	global.ForEach(func(e int) bool {
		for p, ge := range gt.localToGlobal {
			if ge == e {
				out = out.With(p)
				return true
			}
		}
		err = drmerr.New(drmerr.KindCorpusMismatch, "core.tolocal",
			"core: license %d missing from group", e)
		return false
	})
	return out, err
}

// Headroom recomputes the admissible count for belongs-to set from this
// audit's own divided trees: the set's group contributes its local
// superset minimum, every other group contributes min(0, MinSlack) — the
// same decomposition the headroom cache serves from memory, derived here
// independently so audits can cross-check cached admissions. Cost is
// exponential in the group sizes; callers bound it (see
// engine.AuditContext's sampling).
func (a *Auditor) Headroom(set bitset.Mask) (int64, error) {
	if set.Empty() {
		return 0, drmerr.New(drmerr.KindInvalidInput, "core.headroom", "core: empty belongs-to set")
	}
	k := a.grouping.GroupOf(set.Min())
	if k < 0 {
		return 0, drmerr.New(drmerr.KindCorpusMismatch, "core.headroom",
			"core: set %v outside corpus", set)
	}
	gt := a.trees[k]
	local, err := gt.ToLocal(set)
	if err != nil {
		return 0, err
	}
	room, err := gt.Tree.Headroom(local, gt.Aggregates)
	if err != nil {
		return 0, err
	}
	for j, other := range a.trees {
		if j == k {
			continue
		}
		if ms := other.MinSlack(); ms < 0 {
			room += ms
		}
	}
	return room, nil
}

// phases converts the timing decomposition to the stats record's form.
func (a *Auditor) phases() obs.AuditPhases {
	return obs.AuditPhases{
		Build:    a.timings.Construction.Nanoseconds(),
		Overlap:  a.timings.Grouping.Nanoseconds(),
		Divide:   a.timings.Division.Nanoseconds(),
		Flatten:  a.timings.Flatten.Nanoseconds(),
		Validate: a.timings.Validation.Nanoseconds(),
	}
}
