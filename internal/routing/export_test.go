package routing

import (
	"repro/internal/geo"
	"repro/internal/topo"
)

// Valid reports whether the path is structurally consistent.
func (p Path) Valid() bool {
	if len(p.Nodes) == 0 || len(p.Links) != len(p.Nodes)-1 {
		return false
	}
	for i, l := range p.Links {
		if !((l.A == p.Nodes[i] && l.B == p.Nodes[i+1]) ||
			(l.B == p.Nodes[i] && l.A == p.Nodes[i+1])) {
			return false
		}
	}
	return true
}

// Stretch returns path kilometres over great-circle kilometres; 1.0 is a
// geographically optimal route. Returns +Inf for collocated endpoints
// joined by a non-zero path.
func (p Path) Stretch() float64 {
	gc := p.GreatCircleKm()
	d := p.DistKm()
	if gc < 1 {
		gc = 1 // collocated endpoints: compare against 1 km floor
	}
	return d / gc
}

// ASPath returns the AS-level sequence of the path.
func (p Path) ASPath() []*topo.AS {
	var out []*topo.AS
	for _, n := range p.Nodes {
		if n.AS == nil {
			continue
		}
		if len(out) == 0 || out[len(out)-1] != n.AS {
			out = append(out, n.AS)
		}
	}
	return out
}

// ValleyFree verifies the Gao-Rexford invariant on an AS-level path: once
// the path stops climbing (customer->provider edges), it may cross at
// most one peer edge and must then only descend (provider->customer).
func ValleyFree(nw *topo.Network, pr *PolicyRouter, path []*topo.AS) bool {
	const (
		up = iota
		acrossDone
		down
	)
	state := up
	for i := 0; i+1 < len(path); i++ {
		adj := pr.asAdj[path[i].ASN][path[i+1].ASN]
		if adj == nil {
			return false
		}
		switch adj.rel {
		case topo.RelCustomer: // climbing to a provider
			if state != up {
				return false
			}
		case topo.RelPeer:
			if state != up {
				return false
			}
			state = acrossDone
		case topo.RelProvider: // descending to a customer
			state = down
		default:
			return false
		}
	}
	return true
}

// GreatCircleKm returns the direct distance between the endpoints.
func (p Path) GreatCircleKm() float64 {
	if len(p.Nodes) < 2 {
		return 0
	}
	return geo.DistanceKm(p.Nodes[0].Pos, p.Nodes[len(p.Nodes)-1].Pos)
}
