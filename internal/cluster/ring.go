// Package cluster scales the validation service out horizontally with
// two cooperating mechanisms. A consistent-hash ring with virtual nodes
// maps catalog keys (content/permission pairs) onto a static peer list,
// so a stateless router in front of the shards forwards each request to
// the peer owning its key — and adding a peer remaps only ~K/n keys
// instead of reshuffling everything. Within a shard, a log-shipping
// replication protocol streams the leader's WAL to followers byte for
// byte (wal.ReadFrames / wal.IngestFrames): followers recover through
// the ordinary replay path, serve read-only audits and headroom with a
// warm cache, report their lag, and can be promoted to leader after the
// fetch loop drains — the verified failover path.
//
// The package deliberately does not import internal/engine, nor engine
// this package: the server hands it apply callbacks and registers each
// package's metrics itself.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultVnodes is the virtual-node count per peer. 128 vnodes keeps
// the per-peer share of the key space within a few percent of uniform
// for small clusters while the ring stays a few KiB.
const DefaultVnodes = 128

// Ring is a consistent-hash ring over a peer set: each peer is hashed
// onto the ring at vnodes points (FNV-1a of "peer#i"), and a key is
// owned by the first vnode clockwise from the key's hash. Safe for
// concurrent use; Add rebuilds the sorted point list.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint // sorted by hash
	peers  map[string]struct{}
}

type ringPoint struct {
	hash uint64
	peer string
}

// NewRing returns an empty ring with the given virtual-node count per
// peer (DefaultVnodes when v <= 0).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, peers: make(map[string]struct{})}
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Add inserts peer's virtual nodes; adding a present peer is a no-op.
func (r *Ring) Add(peer string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.peers[peer]; ok {
		return
	}
	r.peers[peer] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hashKey(fmt.Sprintf("%s#%d", peer, i)), peer})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Peers returns the member peers, sorted.
func (r *Ring) Peers() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.peers))
	for p := range r.peers {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// OwnerWhere returns the first owner clockwise from key's hash whose
// peer satisfies eligible (every peer, when eligible is nil). Distinct
// vnodes of one ineligible peer are skipped as a unit, so the fallback
// order is the successor-peer order the ring already defines — the
// property routing uses to steer around an unhealthy owner without
// remapping healthy keys.
func (r *Ring) OwnerWhere(key string, eligible func(peer string) bool) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.points)
	if n == 0 {
		return "", false
	}
	h := hashKey(key)
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h }) % n
	seen := make(map[string]struct{}, len(r.peers))
	for i := 0; i < n; i++ {
		p := r.points[(start+i)%n].peer
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		if eligible == nil || eligible(p) {
			return p, true
		}
	}
	return "", false
}
