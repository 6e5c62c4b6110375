package cluster

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("content-%04d/usage", i)
	}
	return keys
}

// TestRingEveryKeyHasExactlyOneOwner: ownership is total and stable —
// every key maps to an owner, repeated lookups agree, and the owner is
// a member peer.
func TestRingEveryKeyHasExactlyOneOwner(t *testing.T) {
	r := NewRing(0)
	peers := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	for _, p := range peers {
		r.Add(p)
	}
	members := make(map[string]bool)
	for _, p := range r.Peers() {
		members[p] = true
	}
	counts := make(map[string]int)
	for _, k := range testKeys(10000) {
		owner, ok := r.OwnerWhere(k, nil)
		if !ok {
			t.Fatalf("key %q has no owner", k)
		}
		if !members[owner] {
			t.Fatalf("key %q owned by non-member %q", k, owner)
		}
		again, _ := r.OwnerWhere(k, nil)
		if again != owner {
			t.Fatalf("key %q owner unstable: %q then %q", k, owner, again)
		}
		counts[owner]++
	}
	// Virtual nodes keep the shares roughly uniform: no peer owns more
	// than twice its fair share.
	fair := 10000 / len(peers)
	for p, c := range counts {
		if c == 0 {
			t.Fatalf("peer %s owns no keys", p)
		}
		if c > 2*fair {
			t.Fatalf("peer %s owns %d of 10000 keys (fair share %d)", p, c, fair)
		}
	}
}

// TestRingAddRemapsAtMostFairShare: adding a peer moves keys only TO
// the new peer (no shuffling between existing peers), and the moved
// fraction stays near K/(n+1) — bounded here by K/n, the acceptance
// bound.
func TestRingAddRemapsAtMostFairShare(t *testing.T) {
	const K = 10000
	keys := testKeys(K)
	peers := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := NewRing(0)
	for _, p := range peers {
		r.Add(p)
	}
	before := make(map[string]string, K)
	for _, k := range keys {
		before[k], _ = r.OwnerWhere(k, nil)
	}
	const added = "http://e:1"
	r.Add(added)
	moved := 0
	for _, k := range keys {
		after, _ := r.OwnerWhere(k, nil)
		if after == before[k] {
			continue
		}
		moved++
		if after != added {
			t.Fatalf("key %q moved %q → %q, not to the added peer", k, before[k], after)
		}
	}
	if bound := K / len(peers); moved > bound {
		t.Fatalf("adding a peer moved %d of %d keys, want <= K/n = %d", moved, K, bound)
	}
	if moved == 0 {
		t.Fatal("adding a peer moved no keys")
	}
}

// TestRingOwnerWhereFallsToSuccessor: an ineligible owner is skipped in
// successor order; keys owned by eligible peers do not move.
func TestRingOwnerWhereFallsToSuccessor(t *testing.T) {
	r := NewRing(0)
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	for _, p := range peers {
		r.Add(p)
	}
	down := "http://b:1"
	up := func(p string) bool { return p != down }
	for _, k := range testKeys(2000) {
		owner, _ := r.OwnerWhere(k, nil)
		routed, ok := r.OwnerWhere(k, up)
		if !ok {
			t.Fatalf("key %q unroutable with one peer down", k)
		}
		if routed == down {
			t.Fatalf("key %q routed to the down peer", k)
		}
		if owner != down && routed != owner {
			t.Fatalf("key %q moved %q → %q though its owner is up", k, owner, routed)
		}
	}
	if _, ok := r.OwnerWhere("anything", func(string) bool { return false }); ok {
		t.Fatal("OwnerWhere found an owner with no eligible peers")
	}
}

func TestRingEmptyAndKeyForPath(t *testing.T) {
	if _, ok := NewRing(0).OwnerWhere("k", nil); ok {
		t.Fatal("empty ring returned an owner")
	}
	cases := map[string]string{
		"/v1/c/film-7/usage/issue":  "film-7/usage",
		"/v1/c/film-7/usage":        "film-7/usage",
		"/v1/c/film-7":              "",
		"/v1/issue":                 "",
		"/v1/contents":              "",
		"/v1/c/a%20b/redist/corpus": "a%20b/redist",
	}
	for path, want := range cases {
		if got := KeyForPath(path); got != want {
			t.Fatalf("KeyForPath(%q) = %q, want %q", path, got, want)
		}
	}
}
