// Package rtree implements an R-tree over license hyper-rectangles — the
// spatial index behind fast instance-based validation.
//
// Instance validation (§3.1, and the MPML architecture of the paper's [9])
// asks: given an issued license's rectangle q, which redistribution
// licenses' rectangles fully contain q? A linear scan is O(N·M); the R-tree
// prunes by minimum bounding rectangles. Containment search is sound
// because an entry containing q forces every ancestor MBR to contain q, so
// subtrees whose MBR does not contain q cannot hold answers.
//
// The tree is a classic Guttman R-tree with quadratic split, generalised to
// the mixed interval/set axes of geometry.Rect (MBR = axis-wise hull).
package rtree

import (
	"fmt"

	"repro/internal/geometry"
)

// DefaultMaxEntries is the default node fan-out.
const DefaultMaxEntries = 8

// Tree is an R-tree mapping rectangles to integer payloads (license
// indexes). The zero value is not usable; call New.
type Tree struct {
	schema     *geometry.Schema
	root       *node
	maxEntries int
	minEntries int
	size       int
}

// entry is one slot of a node: a bounding rectangle plus either a child
// (internal nodes) or a payload id (leaves).
type entry struct {
	rect  geometry.Rect
	child *node
	id    int
}

type node struct {
	leaf    bool
	entries []entry
}

// New returns an empty R-tree over the schema. maxEntries bounds node
// fan-out; values < 4 are raised to DefaultMaxEntries.
func New(schema *geometry.Schema, maxEntries int) *Tree {
	if maxEntries < 4 {
		maxEntries = DefaultMaxEntries
	}
	return &Tree{
		schema:     schema,
		root:       &node{leaf: true},
		maxEntries: maxEntries,
		minEntries: maxEntries / 2,
	}
}

// Insert adds a rectangle with its payload id. Empty rectangles are
// rejected: they cannot contain anything and would only pollute MBRs.
func (t *Tree) Insert(r geometry.Rect, id int) error {
	if r.IsZero() || r.Schema() != t.schema {
		return fmt.Errorf("rtree: rect schema mismatch")
	}
	if r.Empty() {
		return fmt.Errorf("rtree: empty rectangle for id %d", id)
	}
	t.insert(entry{rect: r, id: id})
	t.size++
	return nil
}

func (t *Tree) insert(e entry) {
	leaf, path := t.chooseLeaf(e.rect)
	leaf.entries = append(leaf.entries, e)
	// Split upward while nodes overflow.
	n := leaf
	for i := len(path) - 1; ; i-- {
		if len(n.entries) <= t.maxEntries {
			break
		}
		left, right := t.split(n)
		if i < 0 {
			// n was the root: grow the tree.
			t.root = &node{
				leaf: false,
				entries: []entry{
					{rect: mbr(left), child: left},
					{rect: mbr(right), child: right},
				},
			}
			return
		}
		parent := path[i]
		// Replace n's entry with left, append right.
		for j := range parent.entries {
			if parent.entries[j].child == n {
				parent.entries[j] = entry{rect: mbr(left), child: left}
				break
			}
		}
		parent.entries = append(parent.entries, entry{rect: mbr(right), child: right})
		n = parent
	}
	// Refresh MBRs along the path.
	for i := len(path) - 1; i >= 0; i-- {
		parent := path[i]
		for j := range parent.entries {
			if parent.entries[j].child == n {
				parent.entries[j].rect = mbr(n)
				break
			}
		}
		n = parent
	}
}

// chooseLeaf descends by least enlargement, returning the leaf and the
// root→leaf path of internal nodes above it.
func (t *Tree) chooseLeaf(r geometry.Rect) (*node, []*node) {
	var path []*node
	n := t.root
	for !n.leaf {
		path = append(path, n)
		best := 0
		bestEnl := n.entries[0].rect.Enlargement(r)
		for i := 1; i < len(n.entries); i++ {
			if enl := n.entries[i].rect.Enlargement(r); enl < bestEnl {
				best, bestEnl = i, enl
			}
		}
		// Growing the chosen entry's MBR now keeps ancestors consistent.
		n.entries[best].rect = n.entries[best].rect.Bound(r)
		n = n.entries[best].child
	}
	return n, path
}

// mbr computes a node's bounding rectangle.
func mbr(n *node) geometry.Rect {
	r := n.entries[0].rect
	for _, e := range n.entries[1:] {
		r = r.Bound(e.rect)
	}
	return r
}

// split performs Guttman's quadratic split on an overflowing node,
// returning the two replacement nodes.
func (t *Tree) split(n *node) (*node, *node) {
	entries := n.entries
	// Pick the seed pair wasting the most area if grouped together.
	seedA, seedB := 0, 1
	var worst int64 = -1
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			waste := entries[i].rect.Enlargement(entries[j].rect) +
				entries[j].rect.Enlargement(entries[i].rect)
			if waste > worst {
				worst, seedA, seedB = waste, i, j
			}
		}
	}
	left := &node{leaf: n.leaf, entries: []entry{entries[seedA]}}
	right := &node{leaf: n.leaf, entries: []entry{entries[seedB]}}
	leftMBR, rightMBR := entries[seedA].rect, entries[seedB].rect

	rest := make([]entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		// Force assignment if one side must absorb everything left to
		// reach minEntries.
		if len(left.entries)+len(rest) == t.minEntries {
			for _, e := range rest {
				left.entries = append(left.entries, e)
				leftMBR = leftMBR.Bound(e.rect)
			}
			break
		}
		if len(right.entries)+len(rest) == t.minEntries {
			for _, e := range rest {
				right.entries = append(right.entries, e)
				rightMBR = rightMBR.Bound(e.rect)
			}
			break
		}
		// Pick the entry with the strongest preference.
		bestIdx, bestDiff, toLeft := 0, int64(-1), true
		for i, e := range rest {
			dl := leftMBR.Enlargement(e.rect)
			dr := rightMBR.Enlargement(e.rect)
			diff := dl - dr
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestIdx, bestDiff, toLeft = i, diff, dl < dr
			}
		}
		e := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		if toLeft {
			left.entries = append(left.entries, e)
			leftMBR = leftMBR.Bound(e.rect)
		} else {
			right.entries = append(right.entries, e)
			rightMBR = rightMBR.Bound(e.rect)
		}
	}
	return left, right
}

// SearchContaining returns the ids of all entries whose rectangle fully
// contains q — the instance-validation query. Results are in no particular
// order.
func (t *Tree) SearchContaining(q geometry.Rect) []int {
	var out []int
	var walk func(n *node)
	walk = func(n *node) {
		for _, e := range n.entries {
			if !e.rect.Contains(q) {
				continue
			}
			if n.leaf {
				out = append(out, e.id)
			} else {
				walk(e.child)
			}
		}
	}
	walk(t.root)
	return out
}

// checkInvariants walks the tree verifying structural invariants; tests use
// it. It returns a description of the first violation found, or "".
func (t *Tree) checkInvariants() string {
	var count int
	var walk func(n *node, depth int) (int, string)
	walk = func(n *node, depth int) (int, string) {
		if n != t.root && len(n.entries) == 0 {
			return 0, "empty non-root node"
		}
		if len(n.entries) > t.maxEntries {
			return 0, fmt.Sprintf("node with %d > max %d entries", len(n.entries), t.maxEntries)
		}
		if n.leaf {
			count += len(n.entries)
			return depth, ""
		}
		leafDepth := -1
		for _, e := range n.entries {
			if e.child == nil {
				return 0, "internal entry without child"
			}
			if !e.rect.Contains(mbr(e.child)) {
				return 0, "entry MBR does not cover child"
			}
			d, msg := walk(e.child, depth+1)
			if msg != "" {
				return 0, msg
			}
			if leafDepth == -1 {
				leafDepth = d
			} else if leafDepth != d {
				return 0, "leaves at different depths"
			}
		}
		return leafDepth, ""
	}
	if _, msg := walk(t.root, 0); msg != "" {
		return msg
	}
	if count != t.size {
		return fmt.Sprintf("size %d but %d leaf entries", t.size, count)
	}
	return ""
}
