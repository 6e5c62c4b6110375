package headroom

import (
	"math"

	"repro/internal/bitset"
)

// The cut evaluator. Within one group, with net counts cnt[T] over the
// observed sets T and budgets A_e,
//
//	slack(S) = A[S] − Σ_{T⊆S} cnt[T]
//
// is a modular term minus a coverage sum, so min over S ⊇ B of slack(S)
// is a maximum-weight-closure problem and one s–t min cut solves it
// (DESIGN §10). The network has a node per observed set and per span
// license:
//
//	source → T   capacity cnt[T]
//	T → e        capacity ∞, for each e ∈ T
//	e → sink     capacity A_e, or 0 for e ∈ B
//
// A cut keeps S (the licenses on the source side, B among them for free)
// and pays cnt[T] for every set not inside S, so
//
//	min over S ⊇ B of slack(S) = A[B] + maxflow_B − Σ cnt.
//
// In flow terms maxflow_B is the largest share of the outstanding counts
// that can be charged to licenses outside B within their budgets (the
// Hall/Gale view of assigning each issuance to a license of its
// belongs-to set); the rest must land on B.

// inf is the capacity of a set → license edge: it never binds, since a
// set's outflow is at most its count.
const inf = math.MaxInt64 / 4

// flowNet is a group's reusable cut network, indexed by the group's
// observed sets and span licenses only. Its shape (nodes and edges) is
// rebuilt when a set is observed or pruned; every evaluation then only
// resets capacities, so a check allocates nothing.
//
// Nodes: 0 is the source, 1..m the observed sets in g.sets order,
// m+1..m+L the span licenses in increasing order, m+L+1 the sink. Edges
// come in pairs k, k^1 (forward, reverse): pair i < m is source → set i,
// pairs from mid[0] to mid[m] are set → license, grouped by set, and the
// last L pairs are license → sink.
type flowNet struct {
	// current reports whether the shape matches the group's sets and span.
	current bool
	lic     []int   // span license of network license j (global index)
	mid     []int32 // mid[i]: first set → license edge of set i; mid[m] ends them
	head    []int32 // node v's edges are adj[head[v]:head[v+1]]
	adj     []int32
	to      []int32 // edge k runs to node to[k]
	cap     []int64 // residual capacities
	level   []int32
	iter    []int32
	queue   []int32
}

// reshape rebuilds the network shape for g's current sets and span.
func (f *flowNet) reshape(g *group) {
	m := len(g.sets)
	f.lic = f.lic[:0]
	var coord [bitset.MaxMaskElems]int32
	g.span.ForEach(func(e int) bool {
		coord[e] = int32(m + 1 + len(f.lic))
		f.lic = append(f.lic, e)
		return true
	})
	nodes := m + len(f.lic) + 2
	sink := int32(nodes - 1)

	f.to = f.to[:0]
	f.mid = f.mid[:0]
	edge := func(from, to int32) {
		f.to = append(f.to, to, from)
	}
	for i := range g.sets {
		edge(0, int32(1+i))
	}
	for i, set := range g.sets {
		f.mid = append(f.mid, int32(len(f.to)))
		set.ForEach(func(e int) bool {
			edge(int32(1+i), coord[e])
			return true
		})
	}
	f.mid = append(f.mid, int32(len(f.to)))
	for j := range f.lic {
		edge(int32(m+1+j), sink)
	}

	// CSR adjacency: an edge k leaves the node its reverse runs to.
	f.head = resize(f.head, nodes+1)
	clear(f.head)
	for k := range f.to {
		f.head[f.to[k^1]+1]++
	}
	for v := 1; v <= nodes; v++ {
		f.head[v] += f.head[v-1]
	}
	f.iter = resize(f.iter, nodes)
	copy(f.iter, f.head[:nodes])
	f.adj = resize(f.adj, len(f.to))
	for k := range f.to {
		from := f.to[k^1]
		f.adj[f.iter[from]] = int32(k)
		f.iter[from]++
	}
	f.cap = resize(f.cap, len(f.to))
	f.level = resize(f.level, nodes)
	f.queue = resize(f.queue, nodes)
	f.current = true
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// maxFlow returns maxflow_forced over g's network with budgets aggs: the
// largest part of g's net counts chargeable to span licenses outside
// forced. Caller holds g.mu.
func (g *group) maxFlow(forced bitset.Mask, aggs []int64) int64 {
	f := &g.net
	if !f.current {
		f.reshape(g)
	}
	m := len(g.sets)
	sinkEdges := f.mid[m]
	for j, e := range f.lic {
		k := sinkEdges + int32(2*j)
		f.cap[k], f.cap[k+1] = aggs[e], 0
		if forced.Has(e) {
			f.cap[k] = 0
		}
	}
	// Greedy first fit charges each set to its licenses in order; it
	// usually places all routable flow, so the augmenting phases below
	// only fix up contention. Sets inside forced cannot route at all.
	var flow, routable int64
	for i, set := range g.sets {
		src := int32(2 * i)
		f.cap[src], f.cap[src+1] = g.cnt[i], 0
		for k := f.mid[i]; k < f.mid[i+1]; k += 2 {
			f.cap[k], f.cap[k+1] = inf, 0
		}
		if set.SubsetOf(forced) {
			continue
		}
		routable += g.cnt[i]
		left := g.cnt[i]
		for k := f.mid[i]; k < f.mid[i+1] && left > 0; k += 2 {
			sk := sinkEdges + 2*(f.to[k]-int32(m+1))
			if x := min(left, f.cap[sk]); x > 0 {
				f.cap[sk] -= x
				f.cap[sk+1] += x
				f.cap[k] -= x
				f.cap[k+1] += x
				left -= x
			}
		}
		placed := g.cnt[i] - left
		f.cap[src] -= placed
		f.cap[src+1] += placed
		flow += placed
	}
	if flow == routable {
		return flow
	}
	// Dinic: augment along shortest residual paths until none is left.
	sink := int32(len(f.level) - 1)
	for f.levels(sink) {
		copy(f.iter, f.head)
		for {
			d := f.augment(0, sink, inf)
			if d == 0 {
				break
			}
			flow += d
		}
	}
	return flow
}

// levels labels nodes with their residual BFS distance from the source
// and reports whether the sink is reachable.
func (f *flowNet) levels(sink int32) bool {
	for v := range f.level {
		f.level[v] = -1
	}
	f.level[0] = 0
	q := f.queue[:1]
	q[0] = 0
	for h := 0; h < len(q); h++ {
		v := q[h]
		for _, k := range f.adj[f.head[v]:f.head[v+1]] {
			if w := f.to[k]; f.cap[k] > 0 && f.level[w] < 0 {
				f.level[w] = f.level[v] + 1
				q = append(q, w)
			}
		}
	}
	return f.level[sink] >= 0
}

// augment pushes up to up units along one level-increasing path from v
// to sink and returns the amount pushed, advancing each node's current
// edge past dead ends.
func (f *flowNet) augment(v, sink int32, up int64) int64 {
	if v == sink {
		return up
	}
	for ; f.iter[v] < f.head[v+1]; f.iter[v]++ {
		k := f.adj[f.iter[v]]
		w := f.to[k]
		if f.cap[k] <= 0 || f.level[w] != f.level[v]+1 {
			continue
		}
		if d := f.augment(w, sink, min(up, f.cap[k])); d > 0 {
			f.cap[k] -= d
			f.cap[k^1] += d
			return d
		}
	}
	return 0
}

// localMinLocked returns min over S ⊇ b inside g of slack(S). Licenses
// of b outside the span add their budget to every such S. Caller holds
// g.mu.
func (c *Cache) localMinLocked(g *group, b bitset.Mask) int64 {
	return c.aggSum(b) + g.maxFlow(b, c.aggs) - g.total
}

// deficitLocked returns min(0, min over S of slack(S)) for g — the cut
// with no forced license, since slack(∅) = 0. Caller holds g.mu.
func (c *Cache) deficitLocked(g *group) int64 {
	return g.maxFlow(0, c.aggs) - g.total
}

// minSlackLocked returns the smallest slack of any non-empty equation
// over g's span — min over span licenses e of localMin({e}), since every
// such S contains one — or unbounded when nothing is observed. It costs
// one cut per span license, so only Summaries calls it. Caller holds
// g.mu.
func (c *Cache) minSlackLocked(g *group) int64 {
	best := unbounded
	g.span.ForEach(func(e int) bool {
		best = min(best, c.localMinLocked(g, bitset.MaskOf(e)))
		return true
	})
	return best
}
