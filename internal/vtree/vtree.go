// Package vtree implements the validation tree of Sachan et al. [10], the
// data structure the paper builds on and divides (§2.2).
//
// The tree is a prefix tree over belongs-to sets: a log record with set
// {L_D^a, L_D^b, ...} (indexes ascending) is inserted as the path
// root→a→b→... and its permission count is added to the final node. The
// count C stored at a node is therefore C[S] for the set S spelled by the
// node's root path — exactly fig 1.
//
// Two query operations matter:
//
//   - SumSubsets(S) computes C⟨S⟩ — the LHS of the validation equation for
//     set S, i.e. Σ C[S'] over all S' ⊆ S — with a pruned depth-first walk
//     that only descends through nodes labelled with members of S;
//   - ValidateAll runs Algorithm 2: all 2^N−1 validation equations
//     C⟨S⟩ ≤ A[S], reporting every violated set.
//
// Node indexes inside a tree are always dense zero-based corpus indexes
// [0, N). The geometric approach (internal/core) relabels divided trees so
// each keeps this invariant with its group-local N_k.
package vtree

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/logstore"
	"repro/internal/trace"
)

// Node is one validation-tree node: a license index, the count for the set
// spelled by the root path, and index-ordered children.
type Node struct {
	// L is the zero-based license index labelling this node.
	L int
	// C is the accumulated count for the path set ending here.
	C int64
	// Children are ordered by ascending L. Exposed for the divider in
	// internal/core; other callers should treat nodes as read-only.
	Children []*Node
}

// Tree is a validation tree over a corpus of n redistribution licenses.
type Tree struct {
	root *Node
	n    int
}

// New returns an empty validation tree over license indexes [0, n).
func New(n int) (*Tree, error) {
	if n < 0 || n > bitset.MaxMaskElems {
		return nil, fmt.Errorf("vtree: invalid license count %d", n)
	}
	return &Tree{root: &Node{L: -1}, n: n}, nil
}

// NewFromRoot wraps an existing root node (used by the divider when it
// relinks subtrees into per-group trees). The caller guarantees that all
// indexes below root are within [0, n).
func NewFromRoot(root *Node, n int) *Tree { return &Tree{root: root, n: n} }

// N returns the number of license indexes the tree spans.
func (t *Tree) N() int { return t.n }

// Root returns the root sentinel node (L == -1). Exposed for the divider.
func (t *Tree) Root() *Node { return t.root }

// Insert adds count to the node for the given belongs-to set, creating the
// path as needed — Algorithm 1 of the paper. The set must be non-empty and
// within [0, N); count must be positive.
func (t *Tree) Insert(set bitset.Mask, count int64) error {
	if set.Empty() {
		return drmerr.New(drmerr.KindInvalidInput, "vtree.insert", "vtree: insert with empty set")
	}
	if !set.SubsetOf(bitset.FullMask(t.n)) {
		return drmerr.New(drmerr.KindCorpusMismatch, "vtree.insert",
			"vtree: set %v outside universe of %d licenses", set, t.n)
	}
	if count <= 0 {
		return drmerr.New(drmerr.KindInvalidInput, "vtree.insert", "vtree: non-positive count %d", count)
	}
	return t.add(set, count)
}

// Add folds a signed count delta into the node for the given set — the
// lifecycle-ledger generalization of Insert. Revocation and expiry
// records contribute negative deltas; ledger soundness (debits never
// exceed credits per set, enforced at append time) keeps every net
// C[S] non-negative when replaying a sound log, so the validation
// equations C⟨S⟩ ≤ A[S] evaluated over net counts stay the paper's.
// A zero delta is a no-op.
func (t *Tree) Add(set bitset.Mask, delta int64) error {
	if delta == 0 {
		return nil
	}
	if set.Empty() {
		return drmerr.New(drmerr.KindInvalidInput, "vtree.insert", "vtree: insert with empty set")
	}
	if !set.SubsetOf(bitset.FullMask(t.n)) {
		return drmerr.New(drmerr.KindCorpusMismatch, "vtree.insert",
			"vtree: set %v outside universe of %d licenses", set, t.n)
	}
	return t.add(set, delta)
}

func (t *Tree) add(set bitset.Mask, delta int64) error {
	cur := t.root
	set.ForEach(func(e int) bool {
		cur = cur.child(e)
		return true
	})
	cur.C += delta
	return nil
}

// child returns the child labelled l, inserting it in index order if absent
// (steps 1–3 of Algorithm 1).
func (n *Node) child(l int) *Node {
	// Children are ordered; find the first child with L >= l.
	i := 0
	for i < len(n.Children) && n.Children[i].L < l {
		i++
	}
	if i < len(n.Children) && n.Children[i].L == l {
		return n.Children[i]
	}
	nc := &Node{L: l}
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = nc
	return nc
}

// InsertRecord folds a ledger record's effective count into the tree:
// issues add, revokes and expiries subtract, transfers leave counts
// unchanged (they move permissions between consumers, not against the
// corpus).
func (t *Tree) InsertRecord(r logstore.Record) error {
	return t.Add(r.Set, r.Effective())
}

// Build replays an issuance log into a fresh tree over n licenses.
func Build(n int, log logstore.Store) (*Tree, error) {
	return BuildContext(context.Background(), n, log)
}

// BuildContext replays an issuance log into a fresh tree over n licenses,
// polling ctx between batches of records so replaying a large log is
// cancellable. A cancelled build returns a KindCancelled error (the
// partially built tree is discarded — unlike audits, a half-replayed tree
// has no sound partial interpretation).
func BuildContext(ctx context.Context, n int, log logstore.Store) (*Tree, error) {
	ctx, sp := trace.Start(ctx, "vtree.build")
	t, err := New(n)
	if err == nil {
		err = logstore.ForEachContext(ctx, log, t.InsertRecord)
	}
	if sp != nil {
		sp.SetInt("licenses", int64(n))
		sp.Fail(err)
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// BuildRecords replays a record slice into a fresh tree over n licenses.
func BuildRecords(n int, records []logstore.Record) (*Tree, error) {
	t, err := New(n)
	if err != nil {
		return nil, err
	}
	for _, r := range records {
		if err := t.InsertRecord(r); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// SumSubsets returns C⟨S⟩ = Σ_{S' ⊆ S, S' ≠ ∅} C[S'], the LHS of the
// validation equation for S (eq. 1). The walk descends only through
// children labelled with members of S; because children are index-ordered,
// it stops scanning a child list past max(S).
func (t *Tree) SumSubsets(s bitset.Mask) int64 {
	if s.Empty() {
		return 0
	}
	return sumSubsets(t.root, s, s.Max())
}

func sumSubsets(n *Node, s bitset.Mask, maxElem int) int64 {
	var total int64
	for _, c := range n.Children {
		if c.L > maxElem {
			break
		}
		if !s.Has(c.L) {
			continue
		}
		total += c.C
		total += sumSubsets(c, s, maxElem)
	}
	return total
}

// Count returns C[S] — the exact count stored for the set S (not the
// subset-closed sum), or 0 if the path does not exist.
func (t *Tree) Count(s bitset.Mask) int64 {
	cur := t.root
	ok := true
	s.ForEach(func(e int) bool {
		cur = cur.find(e)
		if cur == nil {
			ok = false
			return false
		}
		return true
	})
	if !ok || cur == t.root {
		return 0
	}
	return cur.C
}

// find returns the child labelled l, or nil.
func (n *Node) find(l int) *Node {
	for _, c := range n.Children {
		if c.L == l {
			return c
		}
		if c.L > l {
			return nil
		}
	}
	return nil
}

// Violation reports one failed validation equation: the set, its LHS C⟨S⟩,
// and its RHS A[S].
type Violation struct {
	Set bitset.Mask
	CV  int64 // LHS: aggregated issued counts
	AV  int64 // RHS: aggregated license budgets
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("set %v: issued %d > budget %d", v.Set, v.CV, v.AV)
}

// Result summarises a validation run.
type Result struct {
	// Equations is the number of validation equations evaluated.
	Equations int64
	// Violations lists every violated equation, in ascending set order.
	Violations []Violation
}

// OK reports whether no equation was violated.
func (r Result) OK() bool { return len(r.Violations) == 0 }

// ValidateAll runs Algorithm 2: it evaluates all 2^N−1 validation
// equations against the aggregate array a (a[j] is the budget of license j)
// and reports every violation. len(a) must equal N.
func (t *Tree) ValidateAll(a []int64) (Result, error) {
	if len(a) != t.n {
		return Result{}, fmt.Errorf("vtree: aggregate array has %d entries, want %d", len(a), t.n)
	}
	var res Result
	full := bitset.FullMask(t.n)
	for i := bitset.Mask(1); ; i++ {
		cv := t.SumSubsets(i)
		var av int64
		i.ForEach(func(e int) bool {
			av += a[e]
			return true
		})
		res.Equations++
		if cv > av {
			res.Violations = append(res.Violations, Violation{Set: i, CV: cv, AV: av})
		}
		if i == full {
			break
		}
	}
	return res, nil
}

// Headroom returns the largest count that could be issued for an issued
// license with belongs-to set base without violating any validation
// equation: min over all S ⊇ base of A[S] − C⟨S⟩. Appending a record
// (base, c) raises C⟨S⟩ by c exactly for the supersets of base, so a new
// issuance is aggregate-valid iff c ≤ Headroom(base). A non-positive result
// means the log already violates some equation containing base.
func (t *Tree) Headroom(base bitset.Mask, a []int64) (int64, error) {
	if len(a) != t.n {
		return 0, fmt.Errorf("vtree: aggregate array has %d entries, want %d", len(a), t.n)
	}
	if base.Empty() {
		return 0, errors.New("vtree: empty base set")
	}
	full := bitset.FullMask(t.n)
	if !base.SubsetOf(full) {
		return 0, fmt.Errorf("vtree: base %v outside universe of %d licenses", base, t.n)
	}
	headroom := int64(math.MaxInt64)
	consider := func(s bitset.Mask) {
		var av int64
		s.ForEach(func(e int) bool {
			av += a[e]
			return true
		})
		if room := av - t.SumSubsets(s); room < headroom {
			headroom = room
		}
	}
	consider(base)
	full.Diff(base).Subsets(func(extra bitset.Mask) bool {
		consider(base.Union(extra))
		return true
	})
	// One aggregated hook update per query: consider ran once per superset
	// of base, i.e. 2^(N−|base|) times.
	M.EquationsChecked.Add(int64(1) << uint(full.Diff(base).Len()))
	return headroom, nil
}

// Stats describes the physical shape of a tree, for the fig 9/10 storage
// and construction-cost experiments.
type Stats struct {
	// Nodes counts all nodes excluding the root sentinel.
	Nodes int
	// MaxDepth is the longest root path (0 for an empty tree).
	MaxDepth int
	// Bytes estimates resident size: per-node fixed cost plus child-slice
	// backing arrays, mirroring this implementation's actual layout.
	Bytes int64
}

// nodeFixedBytes is the in-memory size of Node: L (8) + C (8) + slice
// header (24).
const nodeFixedBytes = 40

// Stats computes tree statistics with one walk.
func (t *Tree) Stats() Stats {
	var st Stats
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if depth > st.MaxDepth {
			st.MaxDepth = depth
		}
		st.Bytes += int64(8 * cap(n.Children)) // child pointer array
		for _, c := range n.Children {
			st.Nodes++
			st.Bytes += nodeFixedBytes
			walk(c, depth+1)
		}
	}
	st.Bytes += nodeFixedBytes // root sentinel
	walk(t.root, 0)
	return st
}

// Records exports the tree's (set, count) pairs — every node with C > 0 —
// in depth-first order. Rebuilding a tree from Records reproduces the tree
// exactly (the node set is determined by the record sets alone).
func (t *Tree) Records() []logstore.Record {
	var out []logstore.Record
	var walk func(n *Node, path bitset.Mask)
	walk = func(n *Node, path bitset.Mask) {
		if n.C > 0 {
			out = append(out, logstore.Record{Set: path, Count: n.C})
		}
		for _, c := range n.Children {
			walk(c, path.With(c.L))
		}
	}
	walk(t.root, 0)
	return out
}

// Merge adds every (set, count) record of other into t — the distributed-
// authority operation: two validators that observed disjoint slices of the
// issuance stream combine their trees before a joint audit. Both trees
// must span the same license universe. other is not modified. Merge is
// commutative and associative up to Tree.Equal.
func (t *Tree) Merge(other *Tree) error {
	if other.n != t.n {
		return fmt.Errorf("vtree: merging tree over %d licenses into one over %d", other.n, t.n)
	}
	for _, r := range other.Records() {
		if err := t.Insert(r.Set, r.Count); err != nil {
			return err
		}
	}
	return nil
}

// Equal reports whether two trees have identical structure and counts.
func (t *Tree) Equal(o *Tree) bool {
	if t.n != o.n {
		return false
	}
	return nodeEqual(t.root, o.root)
}

func nodeEqual(a, b *Node) bool {
	if a.L != b.L || a.C != b.C || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !nodeEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	return &Tree{root: cloneNode(t.root), n: t.n}
}

func cloneNode(n *Node) *Node {
	c := &Node{L: n.L, C: n.C}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = cloneNode(ch)
		}
	}
	return c
}

// String renders the tree in indented form for debugging, licenses printed
// one-based like the paper's figures.
func (t *Tree) String() string {
	var b strings.Builder
	b.WriteString("root\n")
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		for _, c := range n.Children {
			fmt.Fprintf(&b, "%sL%d C=%d\n", strings.Repeat("  ", depth+1), c.L+1, c.C)
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	return b.String()
}
