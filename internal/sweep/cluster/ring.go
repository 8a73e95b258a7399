// Package cluster is the horizontal tier over sweepd: a consistent-hash
// routing proxy (Proxy) that spreads scenario queries across read
// replicas, and the segment-shipping pull loop (Replicator) that keeps
// those replicas' stores converging on the writer's bytes.
//
// The division of labour with the serve package: serve runs ONE
// process — cache, store, admission control; cluster arranges MANY of
// them — one writer that simulates and appends, N followers that
// replicate and serve reads, and a proxy in front that routes by
// scenario-ID hash so each replica's LRU cache stays hot on its own
// slice of the ID space. Scenario IDs are content hashes, which buys
// two properties for free: the ID is the record's ETag (so the proxy
// can answer conditional requests from warmth alone), and a record
// fetched from ANY member is correct — staleness degrades to a miss,
// never to wrong bytes.
package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// DefaultVnodes is the virtual-node count per member when Options leave
// it zero: enough points that removing one member of three moves only
// its own arc, small enough that ring construction stays trivial.
const DefaultVnodes = 64

// Ring is an immutable consistent-hash ring over member base URLs.
// Lookup maps a key (a scenario ID; routing uses its shard prefix so
// one shard's records co-locate) to a preference order of members:
// the owner first, then the members that inherit the key as owners
// drop out — exactly the order a proxy should try on failure, because
// it is also the order the key would re-home to if the failure were
// permanent.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
	// shards[s] is the preference order, as member indices, of the
	// shard key whose two lowercase hex digits encode s: the routing
	// keys, walked once here so routing a scenario walks no ring.
	shards [256][]int
}

type ringPoint struct {
	hash   uint64
	member int // index into members
}

// NewRing builds a ring over members with vnodes virtual points each
// (DefaultVnodes when <= 0). Member order does not matter — the ring
// depends only on the member strings — and duplicates are rejected so
// one replica cannot silently own a double arc.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate ring member %q", sorted[i])
		}
	}
	r := &Ring{members: sorted}
	for m, name := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   ringHash(fmt.Sprintf("%s#%d", name, v)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash ties (astronomically rare with distinct vnode labels)
		// break by member so the ring is still a pure function of its
		// member set.
		return a.member < b.member
	})
	n := len(sorted)
	table := make([]int, n*len(r.shards))
	for s := range r.shards {
		key := string([]byte{hexDigits[s>>4], hexDigits[s&0xf]})
		r.shards[s] = r.walk(ringHash(key), table[s*n:s*n:(s+1)*n])
	}
	return r, nil
}

const hexDigits = "0123456789abcdef"

// walk appends to dst, which must start empty, the index of every
// member in preference order from hash h. Member sets are small, so a
// scan of dst finds the members already kept.
func (r *Ring) walk(h uint64, dst []int) []int {
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points) && len(dst) < len(r.members); i++ {
		if m := r.points[(start+i)%len(r.points)].member; !slices.Contains(dst, m) {
			dst = append(dst, m)
		}
	}
	return dst
}

// ringHash places vnode labels and keys on the ring: FNV-1a, then
// murmur3's 64-bit finalizer. FNV-1a alone barely moves on short
// inputs that share a prefix — the 256 two-hex-digit shard keys all
// hash into 0x07ea…–0x08a6…, about 0.3% of the ring, so one member
// owned every shard — and consistent hashing spreads keys only as far
// as their hashes are uniform (Karger et al., STOC 1997). The
// finalizer lets every input bit reach every output bit.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	k := h.Sum64()
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}
