package topo

import (
	"time"

	"repro/internal/geo"
)

// CentralEurope is the reference wired topology for the paper's
// evaluation: the mobile operator anchored in Vienna, a transit chain
// that hairpins a local Klagenfurt request through Vienna, Prague and
// Bucharest (Table I / Figure 4), the regional ISP serving the
// university, and the wired baseline hosts of Horvath [3].
//
// AS-level relationships (the reason the detour exists):
//
//	mobile-at --customer-of--> datapacket --peer(Prague)--> zet
//	zet --provider-of--> as39912 --provider-of--> ascus --provider-of--> uni
//	as39912 --provider-of--> exoscale (cloud baseline)
//
// The only valley-free route from the mobile operator to the university
// therefore climbs to DataPacket in Vienna, crosses to ZET at the Prague
// exchange, traverses ZET's Bucharest core, descends to AS39912 back in
// Vienna, and finally reaches the Klagenfurt regional ISP: ten hops and
// roughly 2500-2700 km for a request whose endpoints are < 5 km apart.
type CentralEurope struct {
	Net *Network

	// Mobile operator (5G core) anchors.
	AggKlu     *Node // Klagenfurt aggregation site (backhaul landing)
	UPFVienna  *Node // central UPF / CGNAT gateway: Table I hop 1
	UPFEdgeKlu *Node // dormant edge-UPF host used by the Section V-B scenario

	// University / destination side.
	ProbeUni   *Node // RIPE-Atlas-style reference probe: Table I hop 10
	ServiceUni *Node // edge AI service host at the university

	// Baselines.
	WiredKlu    *Node // wired host in the same topological area [3]
	ExoscaleVie *Node // cloud host in Vienna (the 7-12 ms baseline [3])

	// Local-peering infrastructure (Section V-A), created dormant.
	KlaIX *Node // Klagenfurt exchange point

	peeringEnabled bool
}

// BuildCentralEurope constructs the reference topology.
func BuildCentralEurope() *CentralEurope {
	nw := NewNetwork()
	ce := &CentralEurope{Net: nw}

	mno := nw.AddAS(65010, "mobile-at")
	dp := nw.AddAS(60068, "datapacket")
	zet := nw.AddAS(44066, "zet")
	i3b := nw.AddAS(39912, "as39912")
	ascus := nw.AddAS(52042, "ascus")
	uni := nw.AddAS(1776, "uni-klu")
	exo := nw.AddAS(61098, "exoscale")
	ix := nw.AddAS(64700, "kla-ix")

	n := func(name, addr string, as *AS, pos geo.Point, city string, kind NodeKind, proc time.Duration) *Node {
		return nw.AddNode(&Node{
			Name: name, Addr: addr, AS: as, Pos: pos, City: city,
			Kind: kind, ProcDelay: proc,
		})
	}

	// --- Mobile operator -------------------------------------------------
	ce.AggKlu = n("agg.klu.mobile-at.net", "10.12.1.1", mno,
		geo.Klagenfurt, "Klagenfurt", KindRouter, 150*time.Microsecond)
	// Table I hop 1: the CGNAT gateway fronting the central UPF. The
	// GTP-U tunnel hides the Klagenfurt aggregation from traceroute.
	ce.UPFVienna = n("gw.upf.vie.mobile-at.net", "10.12.128.1", mno,
		geo.Vienna, "Vienna", KindGateway, 800*time.Microsecond)
	ce.UPFEdgeKlu = n("upf.klu.mobile-at.net", "10.12.64.1", mno,
		geo.Klagenfurt, "Klagenfurt", KindUPFHost, 300*time.Microsecond)
	nw.Connect(ce.AggKlu, ce.UPFVienna, 0, RelInternal, 100, 0.30) // 235 km backhaul
	nw.Connect(ce.AggKlu, ce.UPFEdgeKlu, 1, RelInternal, 100, 0.05)

	// --- DataPacket / CDN77 (the operator's transit) ---------------------
	dpEdge := n("unn-37-19-223-61.datapacket.com", "37.19.223.61", dp,
		geo.Vienna, "Vienna", KindRouter, 250*time.Microsecond)
	dpCore := n("vl204.vie-itx1-core-2.cdn77.com", "185.156.45.138", dp,
		geo.Vienna, "Vienna", KindRouter, 250*time.Microsecond)
	nw.Connect(dpEdge, dpCore, 2, RelInternal, 400, 0.35)
	nw.Connect(ce.UPFVienna, dpEdge, 5, RelCustomer, 100, 0.40)

	// --- ZET (reached at the Prague exchange; core in Bucharest) ---------
	// Table I hop 4: ZET's port at the peering.cz exchange in Prague.
	zetPrg := n("zetservers.peering.cz", "185.0.20.31", zet,
		geo.Prague, "Prague", KindRouter, 300*time.Microsecond)
	// Table I hop 5: despite the "vie" label, the narrative and the RTT
	// step place this distribution router in ZET's Bucharest core.
	zetBuc := n("vie-dr2-cr1.zet.net", "103.246.249.33", zet,
		geo.Bucharest, "Bucharest", KindRouter, 300*time.Microsecond)
	zetCust := n("amanet-cust.zet.net", "185.104.63.33", zet,
		geo.Bucharest, "Bucharest", KindRouter, 300*time.Microsecond)
	// ZET's internal long-hauls: Prague <-> Bucharest <-> Vienna. There is
	// deliberately no direct Prague <-> Vienna internal link: that is the
	// intra-AS inefficiency behind Figure 4.
	nw.Connect(zetPrg, zetBuc, 0, RelInternal, 200, 0.45) // ~1080 km
	nw.Connect(zetBuc, zetCust, 2, RelInternal, 200, 0.20)
	// DataPacket peers with ZET at the Prague exchange.
	nw.Connect(dpCore, zetPrg, 0, RelPeer, 100, 0.50) // ~251 km Vienna->Prague

	// --- AS39912 (Vienna; ZET's customer, transit for the region) --------
	i3bVie := n("ae2-97.mx204-1.ix.vie.at.as39912.net", "185.211.219.155", i3b,
		geo.Vienna, "Vienna", KindRouter, 250*time.Microsecond)
	nw.Connect(zetCust, i3bVie, 0, RelProvider, 100, 0.40) // ~856 km Bucharest->Vienna

	// --- ascus.at (Klagenfurt regional ISP) ------------------------------
	ascusCore := n("003-228-016-195.ascus.at", "195.16.228.3", ascus,
		geo.Klagenfurt, "Klagenfurt", KindRouter, 200*time.Microsecond)
	ascusAgg := n("180-246-016-195.ascus.at", "195.16.246.180", ascus,
		geo.Klagenfurt, "Klagenfurt", KindRouter, 200*time.Microsecond)
	nw.Connect(ascusCore, ascusAgg, 2, RelInternal, 100, 0.25)
	nw.Connect(i3bVie, ascusCore, 0, RelProvider, 100, 0.35) // ~235 km Vienna->Klagenfurt

	// --- University network ----------------------------------------------
	ce.ProbeUni = n("probe.uni-klu.ac.at", "195.140.139.133", uni,
		geo.Klagenfurt, "Klagenfurt", KindProbe, 200*time.Microsecond)
	ce.ServiceUni = n("edge-ai.uni-klu.ac.at", "195.140.139.21", uni,
		geo.Klagenfurt, "Klagenfurt", KindHost, 200*time.Microsecond)
	uniGw := n("gw.uni-klu.ac.at", "195.140.139.1", uni,
		geo.Klagenfurt, "Klagenfurt", KindRouter, 150*time.Microsecond)
	nw.Connect(uniGw, ce.ProbeUni, 1, RelInternal, 10, 0.10)
	nw.Connect(uniGw, ce.ServiceUni, 1, RelInternal, 10, 0.10)
	nw.Connect(ascusAgg, uniGw, 3, RelProvider, 10, 0.20)

	// --- Baseline hosts ---------------------------------------------------
	// The wired baseline host sits behind a residential/office last mile
	// (DSLAM/OLT): its ~1.4 ms interleaving and scheduling delay is what
	// lifts the wired Exoscale baseline into the paper's 7-12 ms band.
	dslam := n("dslam.klu.ascus.at", "195.16.246.2", ascus,
		geo.Klagenfurt, "Klagenfurt", KindRouter, 1400*time.Microsecond)
	ce.WiredKlu = n("wired.klu.ascus.at", "195.16.246.10", ascus,
		geo.Klagenfurt, "Klagenfurt", KindHost, 200*time.Microsecond)
	nw.Connect(ascusAgg, dslam, 2, RelInternal, 10, 0.20)
	nw.Connect(dslam, ce.WiredKlu, 1, RelInternal, 1, 0.15)
	ce.ExoscaleVie = n("at-vie-1.exoscale.com", "194.182.160.10", exo,
		geo.Vienna, "Vienna", KindHost, 250*time.Microsecond)
	nw.Connect(i3bVie, ce.ExoscaleVie, 4, RelProvider, 100, 0.30)

	// --- Dormant local exchange (Section V-A) ----------------------------
	ce.KlaIX = n("klaix.kla-ix.at", "193.171.1.1", ix,
		geo.Klagenfurt, "Klagenfurt", KindIXP, 100*time.Microsecond)

	return ce
}

// EnableLocalPeering wires the Section V-A recommendation into the
// topology: the mobile operator and the regional ISP (and through it the
// university) meet at the Klagenfurt exchange, so local traffic no longer
// climbs to Vienna transit. Idempotent.
func (ce *CentralEurope) EnableLocalPeering() {
	if ce.peeringEnabled {
		return
	}
	ce.peeringEnabled = true
	nw := ce.Net
	ascusCore := nw.MustLookup("003-228-016-195.ascus.at")
	// An IXP fabric is a transparent layer-2 switch: the BGP session runs
	// directly between the members, so the policy graph sees a direct
	// peer link (4 km: both members' ports plus the fabric).
	nw.Connect(ce.AggKlu, ascusCore, 4, RelPeer, 100, 0.10)
}
