package cluster

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestRingDeterministicAndOrderInsensitive: the ring is a pure function
// of its member SET — permuting the input changes nothing — and Order
// is a permutation of the members with the owner first.
func TestRingDeterministicAndOrderInsensitive(t *testing.T) {
	members := []string{"http://c:1", "http://a:1", "http://b:1"}
	r1, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{"http://b:1", "http://c:1", "http://a:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"00", "7f", "ab", "ff", "scenario-hash-x"}
	for _, k := range keys {
		o1, o2 := r1.Order(k), r2.Order(k)
		if !reflect.DeepEqual(o1, o2) {
			t.Fatalf("key %q: member order changed the ring: %v vs %v", k, o1, o2)
		}
		if len(o1) != len(members) {
			t.Fatalf("key %q: preference order has %d members, want %d", k, len(o1), len(members))
		}
		seen := map[string]bool{}
		for _, m := range o1 {
			if seen[m] {
				t.Fatalf("key %q: member %s listed twice", k, m)
			}
			seen[m] = true
		}
		if r1.Lookup(k) != o1[0] {
			t.Fatalf("key %q: Lookup disagrees with Order[0]", k)
		}
	}
}

// TestRingSpreadsShards: over the 256 shard prefixes, every member of a
// three-way ring owns a reasonable arc — no member is starved, which
// would defeat the cache-locality routing entirely.
func TestRingSpreadsShards(t *testing.T) {
	r, err := NewRing([]string{"http://a:1", "http://b:1", "http://c:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	hex := "0123456789abcdef"
	for _, a := range hex {
		for _, b := range hex {
			counts[r.Lookup(string(a)+string(b))]++
		}
	}
	for m, n := range counts {
		// Perfect would be ~85; demand each member own at least a third
		// of that. With fixed fnv hashing this is deterministic, so the
		// assertion can't flake.
		if n < 28 {
			t.Fatalf("member %s owns only %d/256 shards: %v", m, n, counts)
		}
	}
}

// TestRingSpreadsLoopbackMemberSets: real member sets are replicas on
// consecutive loopback ports, names that differ in one or two trailing
// characters. Over 1,000 seeded sets each of 2, 3 and 4 members, every
// member owns at least 40% of its fair share of the 256 shards. An
// unmixed FNV-1a ring fails this at once: it packs every shard key
// into 0.3% of the ring, so one member owns all 256.
func TestRingSpreadsLoopbackMemberSets(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 256))
	for n := 2; n <= 4; n++ {
		floor := 0.4 * 256 / float64(n)
		worst := 256
		for set := 0; set < 1000; set++ {
			base := 1024 + rng.IntN(60000)
			members := make([]string, n)
			for i := range members {
				members[i] = fmt.Sprintf("http://127.0.0.1:%d", base+i)
			}
			r, err := NewRing(members, 0)
			if err != nil {
				t.Fatal(err)
			}
			owned := make([]int, n)
			for _, order := range r.shards {
				owned[order[0]]++
			}
			for m, k := range owned {
				if float64(k) < floor {
					t.Fatalf("%d members from port %d: %s owns %d/256 shards, want >= %.1f: %v",
						n, base, r.members[m], k, floor, owned)
				}
				worst = min(worst, k)
			}
		}
		t.Logf("%d members: the least-served member of 1,000 sets owns %d/256 shards", n, worst)
	}
}

// TestRingStabilityUnderMemberLoss: removing one member only re-homes
// the shards it owned; every other shard keeps its owner. This is the
// property that makes eject/readmit cheap for the caches.
func TestRingStabilityUnderMemberLoss(t *testing.T) {
	full, err := NewRing([]string{"http://a:1", "http://b:1", "http://c:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing([]string{"http://a:1", "http://c:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hex := "0123456789abcdef"
	for _, a := range hex {
		for _, b := range hex {
			k := string(a) + string(b)
			if owner := full.Lookup(k); owner != "http://b:1" {
				if got := reduced.Lookup(k); got != owner {
					t.Fatalf("shard %s moved from %s to %s though its owner survived", k, owner, got)
				}
			}
		}
	}
	// And the survivor order predicted by the full ring matches where
	// the reduced ring homes the lost member's shards.
	for _, a := range hex {
		for _, b := range hex {
			k := string(a) + string(b)
			if full.Lookup(k) == "http://b:1" {
				want := ""
				for _, m := range full.Order(k) {
					if m != "http://b:1" {
						want = m
						break
					}
				}
				if got := reduced.Lookup(k); got != want {
					t.Fatalf("shard %s re-homed to %s, but failover order promised %s", k, got, want)
				}
			}
		}
	}
}

// TestRingRejectsBadMemberSets: empty and duplicate member lists fail
// loudly at construction.
func TestRingRejectsBadMemberSets(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty member set accepted")
	}
	if _, err := NewRing([]string{"http://a:1", "http://a:1"}, 0); err == nil {
		t.Fatal("duplicate member accepted")
	}
}
