// Package routing computes paths over the wired topology. It provides
// two routing regimes:
//
//   - Policy routing: a Gao-Rexford (valley-free) BGP abstraction with the
//     standard preference order customer > peer > provider and
//     shortest-AS-path tie-breaking. This regime reproduces the inflated
//     routes the paper measures (Table I / Figure 4).
//   - Shortest-delay routing: plain Dijkstra over link delays, the
//     counterfactual a perfectly-peered infrastructure would achieve
//     (Section V-A).
//
// Both return a Path whose hop list, kilometres and delay can be compared
// directly, which is how the path-stretch numbers in the experiments are
// produced.
package routing

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/topo"
)

// Path is an ordered walk through the wired graph.
type Path struct {
	Nodes []*topo.Node
	Links []*topo.Link // len(Links) == len(Nodes)-1
}

// Hops returns the number of forwarding hops (nodes after the source).
func (p Path) Hops() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// DistKm returns the summed link distance of the path.
func (p Path) DistKm() float64 {
	var km float64
	for _, l := range p.Links {
		km += l.DistKm
	}
	return km
}

// OneWayDelay returns the expected one-way delay: propagation plus
// queueing on every link plus processing at every node after the source.
// An empty or single-node path has zero delay.
func (p Path) OneWayDelay() time.Duration {
	if len(p.Nodes) == 0 {
		return 0
	}
	var d time.Duration
	for _, l := range p.Links {
		d += l.Delay()
	}
	for _, n := range p.Nodes[1:] {
		d += n.ProcDelay
	}
	return d
}

// RTT returns the expected round-trip delay (symmetric routing).
func (p Path) RTT() time.Duration { return 2 * p.OneWayDelay() }

// Cities returns the deduplicated city sequence of the path, the
// narrative form used by Figure 4 ("Vienna, Prague, Bucharest, Vienna").
func (p Path) Cities() []string {
	var out []string
	for _, n := range p.Nodes {
		if n.City == "" {
			continue
		}
		if len(out) == 0 || out[len(out)-1] != n.City {
			out = append(out, n.City)
		}
	}
	return out
}

func (p Path) String() string {
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(n.Name)
	}
	return b.String()
}

// ErrNoRoute is returned when no route satisfies the regime's constraints.
var ErrNoRoute = errors.New("routing: no route")

// --- Shortest-delay routing (Dijkstra) ----------------------------------

// upLink and upInternalLink are the two link filters a Dijkstra run
// takes: any link in service, and in-service links inside one AS.
func upLink(l *topo.Link) bool { return l.Up() }

func upInternalLink(l *topo.Link) bool { return l.Rel == topo.RelInternal && l.Up() }

// pqItem is one frontier entry of the Dijkstra heap.
type pqItem struct {
	node *topo.Node
	dist time.Duration
}

// dijkstra holds the scratch of one shortest-delay search, indexed by
// node ID (IDs are dense: topo.Network.AddNode numbers nodes 0..n-1).
// A PolicyRouter keeps one and reuses it across searches.
type dijkstra struct {
	dist    []time.Duration
	prev    []*topo.Link
	settled []bool
	heap    []pqItem
}

// ShortestDelay returns the minimum-delay path between src and dst,
// ignoring AS policy. Cost is link delay plus downstream node processing.
func ShortestDelay(nw *topo.Network, src, dst *topo.Node) (Path, error) { //sweepvet:allow(deadapi) oracle for the policy-routing tests and BenchmarkShortestDelay
	var d dijkstra
	p, ok := d.run(nw, src, dst, upLink)
	if !ok {
		return Path{}, fmt.Errorf("%w: %s -> %s", ErrNoRoute, src.Name, dst.Name)
	}
	return p, nil
}

// run finds the minimum-delay path from src to dst over the links use
// admits, reporting false when dst is unreachable. The heap is a binary
// heap with container/heap's exact sift order, so equal-delay ties
// break the same way on every run.
func (d *dijkstra) run(nw *topo.Network, src, dst *topo.Node, use func(*topo.Link) bool) (Path, bool) {
	if src == dst {
		return Path{Nodes: []*topo.Node{src}}, true
	}
	d.reset(len(nw.Nodes()))
	d.dist[src.ID] = 0
	d.push(pqItem{node: src})
	for len(d.heap) > 0 {
		it := d.pop()
		if d.settled[it.node.ID] {
			continue
		}
		d.settled[it.node.ID] = true
		if it.node == dst {
			break
		}
		for _, l := range nw.LinksOf(it.node) {
			if !use(l) {
				continue
			}
			next := l.Other(it.node)
			if d.settled[next.ID] {
				continue
			}
			nd := it.dist + l.Delay() + next.ProcDelay
			if nd < d.dist[next.ID] {
				d.dist[next.ID] = nd
				d.prev[next.ID] = l
				d.push(pqItem{node: next, dist: nd})
			}
		}
	}
	if !d.settled[dst.ID] {
		return Path{}, false
	}
	return d.reconstruct(src, dst), true
}

// reset sizes the scratch for n nodes and marks every node unreached.
func (d *dijkstra) reset(n int) {
	if cap(d.dist) < n {
		d.dist = make([]time.Duration, n)
		d.prev = make([]*topo.Link, n)
		d.settled = make([]bool, n)
		d.heap = make([]pqItem, 0, n)
	}
	d.dist, d.prev, d.settled = d.dist[:n], d.prev[:n], d.settled[:n]
	for i := range d.dist {
		d.dist[i] = math.MaxInt64
	}
	clear(d.prev)
	clear(d.settled)
	d.heap = d.heap[:0]
}

func (d *dijkstra) push(it pqItem) {
	d.heap = append(d.heap, it)
	// Sift up, as container/heap.up.
	for j := len(d.heap) - 1; ; {
		i := (j - 1) / 2
		if i == j || d.heap[j].dist >= d.heap[i].dist {
			break
		}
		d.heap[i], d.heap[j] = d.heap[j], d.heap[i]
		j = i
	}
}

func (d *dijkstra) pop() pqItem {
	h := d.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	// Sift down over h[:n], as container/heap.down.
	for i := 0; ; {
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if h[j].dist >= h[i].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	d.heap = h[:n]
	return h[n]
}

// reconstruct walks the predecessor links back from dst and fills the
// path front to back in exactly sized slices.
func (d *dijkstra) reconstruct(src, dst *topo.Node) Path {
	hops := 0
	for at := dst; at != src; at = d.prev[at.ID].Other(at) {
		hops++
	}
	p := Path{Nodes: make([]*topo.Node, hops+1), Links: make([]*topo.Link, hops)}
	at := dst
	for i := hops; i > 0; i-- {
		p.Nodes[i] = at
		l := d.prev[at.ID]
		p.Links[i-1] = l
		at = l.Other(at)
	}
	p.Nodes[0] = src
	return p
}

// --- Policy (valley-free BGP) routing ------------------------------------

// routeClass orders route preference: customer-learned routes beat
// peer-learned ones beat provider-learned ones (Gao-Rexford).
type routeClass int

const (
	classNone routeClass = iota
	classProvider
	classPeer
	classCustomer
	classSelf
)

// asRoute is the chosen route of one AS towards the destination AS.
type asRoute struct {
	class  routeClass
	length int      // AS-path length
	next   *topo.AS // next AS towards the destination
}

// PolicyRouter computes valley-free AS-level routes and expands them to
// router-level paths over the wired graph.
//
// Route reads the graph as it stands, failed and restored links
// included, but NewPolicyRouter indexes the inter-AS adjacencies once.
// An inter-AS link connected later is invisible to an older router: one
// built before CentralEurope.EnableLocalPeering keeps the 11-hop
// AggKlu -> ProbeUni route where a fresh router finds 4 hops. So peer
// first, then build the router, as every caller does.
//
// A router reuses one Dijkstra scratch across searches, so it is not
// safe for concurrent use: give each goroutine its own.
type PolicyRouter struct {
	nw *topo.Network
	// asAdj[asn] lists inter-AS adjacencies with their relationship as
	// read from asn's side, and the concrete border links implementing
	// each adjacency.
	asAdj map[int]map[int]*asAdjacency
	sp    dijkstra
}

type asAdjacency struct {
	rel   topo.Rel
	links []*topo.Link
}

// usable reports whether at least one border link of the adjacency is in
// service; failed adjacencies neither propagate nor carry routes.
func (a *asAdjacency) usable() bool {
	for _, l := range a.links {
		if l.Up() {
			return true
		}
	}
	return false
}

// NewPolicyRouter indexes the network's AS-level structure.
func NewPolicyRouter(nw *topo.Network) *PolicyRouter {
	pr := &PolicyRouter{
		nw:    nw,
		asAdj: make(map[int]map[int]*asAdjacency),
	}
	for _, l := range nw.Links() {
		if l.Rel == topo.RelInternal {
			continue
		}
		pr.addAdj(l.A.AS.ASN, l.B.AS.ASN, l.RelFrom(l.A), l)
		pr.addAdj(l.B.AS.ASN, l.A.AS.ASN, l.RelFrom(l.B), l)
	}
	return pr
}

func (pr *PolicyRouter) addAdj(from, to int, rel topo.Rel, l *topo.Link) {
	m := pr.asAdj[from]
	if m == nil {
		m = make(map[int]*asAdjacency)
		pr.asAdj[from] = m
	}
	adj := m[to]
	if adj == nil {
		adj = &asAdjacency{rel: rel}
		m[to] = adj
	}
	if adj.rel != rel {
		panic(fmt.Sprintf("routing: inconsistent relationship between AS%d and AS%d", from, to))
	}
	adj.links = append(adj.links, l)
}

// Routes computes every AS's best route towards dstAS using the standard
// three-phase valley-free propagation:
//  1. customer routes propagate upward from the destination through
//     provider links (these may later be exported to anyone);
//  2. peer routes cross a single peering edge (export only downward);
//  3. provider routes propagate downward (export only downward).
func (pr *PolicyRouter) Routes(dstAS *topo.AS) map[int]asRoute {
	routes := map[int]asRoute{dstAS.ASN: {class: classSelf, length: 0}}

	// Phase 1: propagate through the customer->provider hierarchy (BFS
	// from the destination along "I am a customer of X" edges). Routes
	// learned this way are customer routes at the receiving AS.
	type qe struct {
		asn    int
		length int
	}
	queue := []qe{{dstAS.ASN, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for nbr, adj := range pr.asAdj[cur.asn] {
			// cur exports to nbr when nbr is cur's provider.
			if adj.rel != topo.RelCustomer || !adj.usable() {
				continue
			}
			cand := asRoute{class: classCustomer, length: cur.length + 1, next: pr.asOf(cur.asn)}
			if better(cand, routes[nbr]) {
				routes[nbr] = cand
				queue = append(queue, qe{nbr, cand.length})
			}
		}
	}

	// Phase 2: one peering edge. Any AS holding a customer (or self)
	// route exports it to its peers.
	type peerCand struct {
		asn   int
		route asRoute
	}
	var peerCands []peerCand
	for asn, r := range routes {
		if r.class != classCustomer && r.class != classSelf {
			continue
		}
		for nbr, adj := range pr.asAdj[asn] {
			if adj.rel != topo.RelPeer || !adj.usable() {
				continue
			}
			cand := asRoute{class: classPeer, length: r.length + 1, next: pr.asOf(asn)}
			if better(cand, routes[nbr]) {
				peerCands = append(peerCands, peerCand{nbr, cand})
			}
		}
	}
	sort.Slice(peerCands, func(i, j int) bool { // determinism
		if peerCands[i].asn != peerCands[j].asn {
			return peerCands[i].asn < peerCands[j].asn
		}
		return peerCands[i].route.length < peerCands[j].route.length
	})
	for _, pc := range peerCands {
		if better(pc.route, routes[pc.asn]) {
			routes[pc.asn] = pc.route
		}
	}

	// Phase 3: provider routes propagate downward: an AS with any route
	// exports it to its customers. Iterate to fixpoint (graph is small).
	for changed := true; changed; {
		changed = false
		asns := make([]int, 0, len(routes))
		for asn := range routes {
			asns = append(asns, asn)
		}
		sort.Ints(asns) // determinism
		for _, asn := range asns {
			r := routes[asn]
			for nbr, adj := range pr.asAdj[asn] {
				// asn exports to nbr when nbr is asn's customer.
				if adj.rel != topo.RelProvider || !adj.usable() {
					continue
				}
				cand := asRoute{class: classProvider, length: r.length + 1, next: pr.asOf(asn)}
				if better(cand, routes[nbr]) {
					routes[nbr] = cand
					changed = true
				}
			}
		}
	}
	return routes
}

func (pr *PolicyRouter) asOf(asn int) *topo.AS { return pr.nw.AS(asn) }

// better implements BGP-style decision: higher class wins, then shorter
// AS path, then (for determinism) lower next-hop ASN.
func better(cand, cur asRoute) bool {
	if cand.class != cur.class {
		return cand.class > cur.class
	}
	if cand.length != cur.length {
		return cand.length < cur.length
	}
	if cand.next != nil && cur.next != nil {
		return cand.next.ASN < cur.next.ASN
	}
	return false
}

// ASPath returns the AS-level valley-free path from srcAS to dstAS.
func (pr *PolicyRouter) ASPath(srcAS, dstAS *topo.AS) ([]*topo.AS, error) {
	routes := pr.Routes(dstAS)
	var path []*topo.AS
	cur := srcAS
	for {
		path = append(path, cur)
		if cur == dstAS {
			return path, nil
		}
		r, ok := routes[cur.ASN]
		if !ok || r.class == classNone || r.next == nil {
			return nil, fmt.Errorf("%w: no policy route %v -> %v", ErrNoRoute, srcAS, dstAS)
		}
		if len(path) > 64 {
			return nil, fmt.Errorf("routing: AS path loop from %v to %v", srcAS, dstAS)
		}
		cur = r.next
	}
}

// Route expands the valley-free AS path between two hosts into a
// router-level path: inside each AS it runs shortest-delay routing from
// the ingress router to the chosen egress border router; across ASes it
// picks the border link minimizing (distance to egress + link delay),
// a deterministic cold-potato approximation.
func (pr *PolicyRouter) Route(src, dst *topo.Node) (Path, error) {
	if src.AS == nil || dst.AS == nil {
		return Path{}, errors.New("routing: host without AS")
	}
	asPath, err := pr.ASPath(src.AS, dst.AS)
	if err != nil {
		return Path{}, err
	}
	full := Path{Nodes: []*topo.Node{src}}
	cur := src
	for i := 0; i+1 < len(asPath); i++ {
		nextAS := asPath[i+1]
		adj := pr.asAdj[asPath[i].ASN][nextAS.ASN]
		if adj == nil {
			return Path{}, fmt.Errorf("%w: missing adjacency %v -> %v", ErrNoRoute, asPath[i], nextAS)
		}
		// Choose the border link with the cheapest intra-AS approach.
		var bestSeg Path
		var bestLink *topo.Link
		bestCost := time.Duration(math.MaxInt64)
		for _, l := range adj.links {
			if !l.Up() {
				continue
			}
			egress, ingress := l.A, l.B
			if egress.AS != asPath[i] {
				egress, ingress = l.B, l.A
			}
			seg, err := pr.intraAS(cur, egress)
			if err != nil {
				continue
			}
			cost := seg.OneWayDelay() + l.Delay() + ingress.ProcDelay
			if cost < bestCost {
				bestCost, bestSeg, bestLink = cost, seg, l
			}
		}
		if bestLink == nil {
			return Path{}, fmt.Errorf("%w: no usable border link %v -> %v", ErrNoRoute, asPath[i], nextAS)
		}
		appendPath(&full, bestSeg)
		ingress := bestLink.Other(full.Nodes[len(full.Nodes)-1])
		full.Links = append(full.Links, bestLink)
		full.Nodes = append(full.Nodes, ingress)
		cur = ingress
	}
	seg, err := pr.intraAS(cur, dst)
	if err != nil {
		return Path{}, err
	}
	appendPath(&full, seg)
	return full, nil
}

// intraAS runs shortest-delay routing constrained to links of one AS.
func (pr *PolicyRouter) intraAS(src, dst *topo.Node) (Path, error) {
	if src != dst && src.AS != dst.AS {
		return Path{}, errors.New("routing: intraAS across ASes")
	}
	p, ok := pr.sp.run(pr.nw, src, dst, upInternalLink)
	if !ok {
		return Path{}, fmt.Errorf("%w: intra-AS %s -> %s", ErrNoRoute, src.Name, dst.Name)
	}
	return p, nil
}

// appendPath extends dst with seg, assuming seg starts at dst's tail.
func appendPath(dst *Path, seg Path) {
	if len(seg.Nodes) == 0 {
		return
	}
	if dst.Nodes[len(dst.Nodes)-1] != seg.Nodes[0] {
		panic("routing: discontinuous path append")
	}
	dst.Nodes = append(dst.Nodes, seg.Nodes[1:]...)
	dst.Links = append(dst.Links, seg.Links...)
}
