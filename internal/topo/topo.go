// Package topo models the wired network substrate: routers, hosts,
// autonomous systems (ASes), IXPs, and links with distance-derived
// propagation delay. The reference topology in centraleurope.go
// reproduces the AS-level structure behind the paper's Table I / Figure 4
// trace (Klagenfurt -> Vienna -> Prague -> Bucharest -> Vienna ->
// Klagenfurt for a local 5 km request).
package topo

import (
	"fmt"
	"time"

	"repro/internal/geo"
)

// FiberDelayPerKm is the one-way propagation delay of light in fibre
// (refractive index ~1.47), about 5 microseconds per kilometre.
const FiberDelayPerKm = 5 * time.Microsecond

// NodeKind classifies nodes of the wired graph.
type NodeKind int

const (
	KindRouter NodeKind = iota
	KindGateway
	KindHost
	KindIXP
	KindProbe
	KindUPFHost
)

var kindNames = map[NodeKind]string{
	KindRouter:  "router",
	KindGateway: "gateway",
	KindHost:    "host",
	KindIXP:     "ixp",
	KindProbe:   "probe",
	KindUPFHost: "upf-host",
}

func (k NodeKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// Rel is the business relationship attached to an inter-AS link, read
// from the A side: RelProvider means "A is a provider of B".
type Rel int

const (
	RelInternal Rel = iota // both endpoints in the same AS
	RelProvider            // A provides transit to B (B is A's customer)
	RelCustomer            // A is a customer of B (B provides transit)
	RelPeer                // settlement-free peering
)

var relNames = map[Rel]string{
	RelInternal: "internal",
	RelProvider: "provider",
	RelCustomer: "customer",
	RelPeer:     "peer",
}

func (r Rel) String() string {
	if s, ok := relNames[r]; ok {
		return s
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Invert returns the relationship as read from the other endpoint.
func (r Rel) Invert() Rel {
	switch r {
	case RelProvider:
		return RelCustomer
	case RelCustomer:
		return RelProvider
	default:
		return r
	}
}

// AS is an autonomous system.
type AS struct {
	ASN  int
	Name string
}

func (a *AS) String() string {
	if a == nil {
		return "AS?"
	}
	return fmt.Sprintf("AS%d(%s)", a.ASN, a.Name)
}

// Node is a router, host, or exchange point in the wired graph.
type Node struct {
	ID   int
	Name string // DNS-style name, e.g. "vl204.vie-itx1-core-2.cdn77.com"
	Addr string // IPv4 literal used in traceroute output
	AS   *AS
	Pos  geo.Point
	City string
	Kind NodeKind
	// ProcDelay is the one-way per-packet forwarding latency at this node
	// (lookup + queueing at nominal load). A route reads it when it is
	// computed.
	ProcDelay time.Duration
}

func (n *Node) String() string { return fmt.Sprintf("%s[%s]", n.Name, n.Addr) }

// Link is an undirected edge of the wired graph.
type Link struct {
	A, B *Node
	// DistKm is the fibre length. A route reads it when it is computed.
	DistKm float64
	// Capacity in Gbit/s; informational for utilization accounting.
	CapacityGbps float64
	// Util is the nominal background utilization in [0, 1); it scales
	// queueing delay via a standard rho/(1-rho) factor. Like DistKm, a
	// route reads it when it is computed.
	Util float64
	Rel  Rel // relationship read from A's side
	// down marks a failed link; both routing regimes skip it.
	down bool
}

// Fail takes the link out of service (fibre cut, maintenance).
func (l *Link) Fail() { l.down = true }

// Restore returns the link to service.
func (l *Link) Restore() { l.down = false }

// Up reports whether the link is in service.
func (l *Link) Up() bool { return !l.down }

// PropDelay returns the one-way propagation delay of the link.
func (l *Link) PropDelay() time.Duration {
	return time.Duration(l.DistKm * float64(FiberDelayPerKm))
}

// QueueDelay returns the expected one-way queueing delay added by the
// link's background utilization (M/M/1-style rho/(1-rho) scaling of a
// 50 microsecond service quantum).
func (l *Link) QueueDelay() time.Duration {
	const quantum = 50 * time.Microsecond
	rho := l.Util
	if rho >= 0.97 {
		rho = 0.97
	}
	if rho <= 0 {
		return 0
	}
	return time.Duration(float64(quantum) * rho / (1 - rho))
}

// Delay returns the expected one-way link traversal delay excluding the
// endpoints' processing delays.
func (l *Link) Delay() time.Duration { return l.PropDelay() + l.QueueDelay() }

// Other returns the opposite endpoint of the link.
func (l *Link) Other(n *Node) *Node {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	}
	panic("topo: node not on link")
}

// RelFrom returns the business relationship as read from node n.
func (l *Link) RelFrom(n *Node) Rel {
	if n == l.A {
		return l.Rel
	}
	if n == l.B {
		return l.Rel.Invert()
	}
	panic("topo: node not on link")
}

// Network is the wired graph.
type Network struct {
	nodes  []*Node
	links  []*Link
	adj    map[int][]*Link
	byName map[string]*Node
	ases   map[int]*AS
	nextID int
}

// NewNetwork returns an empty graph.
func NewNetwork() *Network {
	return &Network{
		adj:    make(map[int][]*Link),
		byName: make(map[string]*Node),
		ases:   make(map[int]*AS),
	}
}

// AddAS registers an autonomous system.
func (nw *Network) AddAS(asn int, name string) *AS {
	if a, ok := nw.ases[asn]; ok {
		return a
	}
	a := &AS{ASN: asn, Name: name}
	nw.ases[asn] = a
	return a
}

// AS returns a registered AS by number, or nil.
func (nw *Network) AS(asn int) *AS { return nw.ases[asn] }

// AddNode inserts a node; names must be unique.
func (nw *Network) AddNode(n *Node) *Node {
	if n.Name == "" {
		panic("topo: node without name")
	}
	if _, dup := nw.byName[n.Name]; dup {
		panic(fmt.Sprintf("topo: duplicate node name %q", n.Name))
	}
	n.ID = nw.nextID
	nw.nextID++
	nw.nodes = append(nw.nodes, n)
	nw.byName[n.Name] = n
	return n
}

// Connect adds an undirected link between two nodes. A zero distKm is
// replaced by the great-circle distance between the node positions.
func (nw *Network) Connect(a, b *Node, distKm float64, rel Rel, capacityGbps, util float64) *Link {
	if a == b {
		panic("topo: self link")
	}
	if distKm == 0 {
		distKm = geo.DistanceKm(a.Pos, b.Pos)
	}
	if rel == RelInternal && a.AS != b.AS {
		panic(fmt.Sprintf("topo: internal link across ASes %v-%v", a.AS, b.AS))
	}
	if rel != RelInternal && a.AS == b.AS {
		panic("topo: external relationship inside one AS")
	}
	l := &Link{A: a, B: b, DistKm: distKm, Rel: rel, CapacityGbps: capacityGbps, Util: util}
	nw.links = append(nw.links, l)
	nw.adj[a.ID] = append(nw.adj[a.ID], l)
	nw.adj[b.ID] = append(nw.adj[b.ID], l)
	return l
}

// Nodes returns all nodes in insertion order.
func (nw *Network) Nodes() []*Node { return nw.nodes }

// Links returns all links in insertion order.
func (nw *Network) Links() []*Link { return nw.links }

// LinksOf returns the links incident to n.
func (nw *Network) LinksOf(n *Node) []*Link { return nw.adj[n.ID] }

// Lookup returns a node by name, or nil.
func (nw *Network) Lookup(name string) *Node { return nw.byName[name] }

// MustLookup returns a node by name or panics; for topology builders.
func (nw *Network) MustLookup(name string) *Node {
	n := nw.byName[name]
	if n == nil {
		panic(fmt.Sprintf("topo: unknown node %q", name))
	}
	return n
}

// LinkBetween returns the first link between a and b, or nil.
func (nw *Network) LinkBetween(a, b *Node) *Link {
	for _, l := range nw.adj[a.ID] {
		if l.Other(a) == b {
			return l
		}
	}
	return nil
}
