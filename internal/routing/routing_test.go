package routing

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
	"repro/internal/topo"
)

func build() (*topo.CentralEurope, *PolicyRouter) {
	ce := topo.BuildCentralEurope()
	return ce, NewPolicyRouter(ce.Net)
}

func TestTableITraceShape(t *testing.T) {
	ce, pr := build()
	p, err := pr.Route(ce.UPFVienna, ce.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Valid() {
		t.Fatal("invalid path")
	}
	if p.Hops() != 10 {
		t.Fatalf("hops = %d, want 10 (Table I)", p.Hops())
	}
	wantOrder := []string{
		"gw.upf.vie.mobile-at.net",
		"unn-37-19-223-61.datapacket.com",
		"vl204.vie-itx1-core-2.cdn77.com",
		"zetservers.peering.cz",
		"vie-dr2-cr1.zet.net",
		"amanet-cust.zet.net",
		"ae2-97.mx204-1.ix.vie.at.as39912.net",
		"003-228-016-195.ascus.at",
		"180-246-016-195.ascus.at",
		"gw.uni-klu.ac.at",
		"probe.uni-klu.ac.at",
	}
	for i, w := range wantOrder {
		if p.Nodes[i].Name != w {
			t.Fatalf("hop %d = %s, want %s", i, p.Nodes[i].Name, w)
		}
	}
	// Figure 4: the route hairpins Vienna -> Prague -> Bucharest -> Vienna.
	cities := strings.Join(p.Cities(), ",")
	if cities != "Vienna,Prague,Bucharest,Vienna,Klagenfurt" {
		t.Fatalf("city sequence = %s", cities)
	}
	// ~2500 km of fibre for a < 5 km request (paper: 2544 km).
	if km := p.DistKm(); km < 2300 || km > 2800 {
		t.Fatalf("route distance = %.0f km, want ~2400-2700", km)
	}
}

func TestTraceStretchIsPathological(t *testing.T) {
	ce, pr := build()
	p, err := pr.Route(ce.AggKlu, ce.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	// Klagenfurt to Klagenfurt: the stretch vs the 1 km floor is extreme.
	if s := p.Stretch(); s < 500 {
		t.Fatalf("stretch = %.0f, want pathological (>500)", s)
	}
}

func TestValleyFreeInvariantOnAllPairs(t *testing.T) {
	ce, pr := build()
	nodes := ce.Net.Nodes()
	checked := 0
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst || src.AS == dst.AS {
				continue
			}
			asPath, err := pr.ASPath(src.AS, dst.AS)
			if err != nil {
				continue // disconnected pairs (e.g. dormant IXP AS) are fine
			}
			if !ValleyFree(ce.Net, pr, asPath) {
				t.Fatalf("valley violation %s -> %s: %v", src.Name, dst.Name, asPath)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no AS pairs checked")
	}
}

func TestPolicyPrefersCustomerOverPeer(t *testing.T) {
	// Synthetic diamond: src can reach dst via a customer chain (longer)
	// or via a peer (shorter). Gao-Rexford prefers the customer route.
	nw := topo.NewNetwork()
	asSrc := nw.AddAS(1, "src")
	asCust := nw.AddAS(2, "cust")
	asCust2 := nw.AddAS(3, "cust2")
	asPeer := nw.AddAS(4, "peer")
	asDst := nw.AddAS(5, "dst")
	mk := func(name string, as *topo.AS) *topo.Node {
		return nw.AddNode(&topo.Node{Name: name, AS: as, Pos: geo.Klagenfurt, ProcDelay: time.Microsecond})
	}
	src := mk("src", asSrc)
	c1 := mk("c1", asCust)
	c2 := mk("c2", asCust2)
	pe := mk("pe", asPeer)
	dst := mk("dst", asDst)
	// src -> provider-of -> c1 -> provider-of -> c2 -> provider-of -> dst
	nw.Connect(src, c1, 10, topo.RelProvider, 10, 0)
	nw.Connect(c1, c2, 10, topo.RelProvider, 10, 0)
	nw.Connect(c2, dst, 10, topo.RelProvider, 10, 0)
	// src -- peer -- pe -> provider-of -> dst (shorter AS path)
	nw.Connect(src, pe, 10, topo.RelPeer, 10, 0)
	nw.Connect(pe, dst, 10, topo.RelProvider, 10, 0)

	pr := NewPolicyRouter(nw)
	asPath, err := pr.ASPath(asSrc, asDst)
	if err != nil {
		t.Fatal(err)
	}
	if len(asPath) != 4 || asPath[1] != asCust {
		t.Fatalf("policy chose %v, want customer chain", asPath)
	}
}

func TestPolicyRefusesValleyPath(t *testing.T) {
	// dst is reachable only by descending to a customer and climbing back
	// up (a valley). Policy routing must refuse even though the graph is
	// physically connected.
	nw := topo.NewNetwork()
	asA := nw.AddAS(1, "a")
	asLow := nw.AddAS(2, "low")
	asB := nw.AddAS(3, "b")
	mk := func(name string, as *topo.AS) *topo.Node {
		return nw.AddNode(&topo.Node{Name: name, AS: as, ProcDelay: time.Microsecond})
	}
	a := mk("a", asA)
	low := mk("low", asLow)
	b := mk("b", asB)
	nw.Connect(a, low, 10, topo.RelProvider, 10, 0) // low is a's customer
	nw.Connect(b, low, 10, topo.RelProvider, 10, 0) // low is b's customer
	pr := NewPolicyRouter(nw)
	if _, err := pr.ASPath(asA, asB); err == nil {
		t.Fatal("valley path should be unroutable")
	}
	// But the shortest-delay regime finds it (the physical counterfactual).
	if _, err := ShortestDelay(nw, a, b); err != nil {
		t.Fatalf("physical path should exist: %v", err)
	}
}

func TestLocalPeeringCollapsesRoute(t *testing.T) {
	ce := topo.BuildCentralEurope()
	ce.EnableLocalPeering()
	pr := NewPolicyRouter(ce.Net)
	p, err := pr.Route(ce.AggKlu, ce.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() > 4 {
		t.Fatalf("peered route hops = %d, want <= 4", p.Hops())
	}
	if rtt := p.RTT(); rtt > 3*time.Millisecond {
		t.Fatalf("peered RTT = %v, want ~1-2 ms (Section V-A)", rtt)
	}
	for _, n := range p.Nodes {
		if n.City != "Klagenfurt" {
			t.Fatalf("peered route leaves Klagenfurt via %s", n.Name)
		}
	}
}

func TestShortestDelayOptimality(t *testing.T) {
	// Dijkstra must never return a worse path than any policy route.
	ce, pr := build()
	pairs := [][2]*topo.Node{
		{ce.UPFVienna, ce.ProbeUni},
		{ce.WiredKlu, ce.ExoscaleVie},
		{ce.AggKlu, ce.ServiceUni},
	}
	for _, pair := range pairs {
		sp, err := ShortestDelay(ce.Net, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		pp, err := pr.Route(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if sp.OneWayDelay() > pp.OneWayDelay() {
			t.Fatalf("Dijkstra (%v) worse than policy (%v) for %s -> %s",
				sp.OneWayDelay(), pp.OneWayDelay(), pair[0].Name, pair[1].Name)
		}
	}
}

func TestShortestDelaySameNode(t *testing.T) {
	ce, _ := build()
	p, err := ShortestDelay(ce.Net, ce.ProbeUni, ce.ProbeUni)
	if err != nil || p.Hops() != 0 || p.OneWayDelay() != 0 {
		t.Fatalf("self path: %v %v", p, err)
	}
}

func TestWiredBaselines(t *testing.T) {
	ce, pr := build()
	// Wired local (Horvath [3]: 1-11 ms in the same topological area).
	local, err := pr.Route(ce.WiredKlu, ce.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	if rtt := local.RTT(); rtt < time.Millisecond || rtt > 11*time.Millisecond {
		t.Fatalf("wired local RTT = %v, want 1-11 ms", rtt)
	}
	// Wired to Exoscale Vienna (paper: 7-12 ms).
	cloud, err := pr.Route(ce.WiredKlu, ce.ExoscaleVie)
	if err != nil {
		t.Fatal(err)
	}
	if rtt := cloud.RTT(); rtt < 7*time.Millisecond || rtt > 12*time.Millisecond {
		t.Fatalf("wired Exoscale RTT = %v, want 7-12 ms", rtt)
	}
}

func TestPathAccessors(t *testing.T) {
	ce, pr := build()
	p, err := pr.Route(ce.UPFVienna, ce.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	if p.RTT() != 2*p.OneWayDelay() {
		t.Fatal("RTT should be twice one-way")
	}
	if got := p.ASPath(); len(got) != 6 {
		t.Fatalf("AS path length = %d, want 6", len(got))
	}
	if !strings.Contains(p.String(), "zetservers.peering.cz") {
		t.Fatal("String() should include hop names")
	}
	// The trace's IP endpoints span Vienna -> Klagenfurt (~235 km); the
	// truly collocated pair is the Klagenfurt aggregation vs the probe.
	local, err := pr.Route(ce.AggKlu, ce.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	if local.GreatCircleKm() > 5 {
		t.Fatalf("endpoints should be < 5 km apart, got %.1f km", local.GreatCircleKm())
	}
}

func TestRouteDeterminism(t *testing.T) {
	f := func(seedIgnored uint8) bool {
		ce, pr := build()
		p1, err1 := pr.Route(ce.UPFVienna, ce.ProbeUni)
		p2, err2 := pr.Route(ce.UPFVienna, ce.ProbeUni)
		if err1 != nil || err2 != nil || p1.Hops() != p2.Hops() {
			return false
		}
		for i := range p1.Nodes {
			if p1.Nodes[i] != p2.Nodes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestPathValidCatchesCorruption(t *testing.T) {
	ce, pr := build()
	p, _ := pr.Route(ce.UPFVienna, ce.ProbeUni)
	if !p.Valid() {
		t.Fatal("fresh path invalid")
	}
	bad := Path{Nodes: p.Nodes, Links: p.Links[:len(p.Links)-1]}
	if bad.Valid() {
		t.Fatal("truncated link list should be invalid")
	}
	bad2 := Path{Nodes: []*topo.Node{p.Nodes[0], p.Nodes[3]}, Links: p.Links[:1]}
	if bad2.Valid() {
		t.Fatal("discontinuous path should be invalid")
	}
}

// samePath reports whether two paths walk the same nodes over the same
// links.
func samePath(a, b Path) bool {
	if len(a.Nodes) != len(b.Nodes) || len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return false
		}
	}
	return true
}

// TestRouteFollowsTopologyChanges routes one pair through a series of
// graph edits. After each edit the long-lived router must answer
// exactly what a router built fresh on the edited graph answers, and
// the answer must differ from the previous one, so a stale answer
// cannot pass.
func TestRouteFollowsTopologyChanges(t *testing.T) {
	ce := topo.BuildCentralEurope()
	nw := ce.Net
	pr := NewPolicyRouter(nw)
	src, dst := ce.AggKlu, ce.ProbeUni
	prev, err := pr.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		got, err := pr.Route(src, dst)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		want, err := NewPolicyRouter(nw).Route(src, dst)
		if err != nil {
			t.Fatalf("%s: fresh router: %v", step, err)
		}
		if !samePath(got, want) {
			t.Fatalf("%s: long-lived router routes %v, fresh router %v", step, got, want)
		}
		if samePath(got, prev) {
			t.Fatalf("%s: route did not change (%v): the edit was not observed", step, got)
		}
		prev = got
	}

	zetPrg := nw.MustLookup("zetservers.peering.cz")
	zetCust := nw.MustLookup("amanet-cust.zet.net")
	shortcut := nw.Connect(zetPrg, zetCust, 1, topo.RelInternal, 100, 0.1)
	check("Connect a shorter internal link")

	bypass := nw.AddNode(&topo.Node{Name: "bypass.klu.mobile-at.net", AS: ce.AggKlu.AS,
		Pos: geo.Klagenfurt, ProcDelay: time.Microsecond})
	nw.Connect(ce.AggKlu, bypass, 1, topo.RelInternal, 100, 0)
	nw.Connect(bypass, ce.UPFVienna, 1, topo.RelInternal, 100, 0)
	check("AddNode+Connect a detour")

	shortcut.Fail()
	check("Fail a link on the path")

	shortcut.Restore()
	check("Restore it")
}

// TestRouteErrorClearsOnRestore checks that an ErrNoRoute is an answer
// for one network state only: once the cut link is restored, the same
// router routes again.
func TestRouteErrorClearsOnRestore(t *testing.T) {
	ce := topo.BuildCentralEurope()
	pr := NewPolicyRouter(ce.Net)
	l := failLink(t, ce.Net, "zetservers.peering.cz", "vie-dr2-cr1.zet.net")
	if _, err := pr.Route(ce.AggKlu, ce.ProbeUni); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("on the partitioned graph: err = %v, want ErrNoRoute", err)
	}
	l.Restore()
	if _, err := pr.Route(ce.AggKlu, ce.ProbeUni); err != nil {
		t.Fatalf("ErrNoRoute survived Restore: %v", err)
	}
}

// TestRouteAppendDoesNotAlias checks that callers appending to the
// slices of returned paths neither change a later answer nor see each
// other's appends.
func TestRouteAppendDoesNotAlias(t *testing.T) {
	ce, pr := build()
	first, err := pr.Route(ce.AggKlu, ce.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	want := Path{
		Nodes: append([]*topo.Node(nil), first.Nodes...),
		Links: append([]*topo.Link(nil), first.Links...),
	}
	// Two callers extend their paths the way appendPath grows a route.
	// With a shared backing array the second append would overwrite the
	// first one's element.
	stray := ce.Net.LinkBetween(ce.AggKlu, ce.UPFEdgeKlu)
	nodesA, linksA := append(first.Nodes, ce.UPFEdgeKlu), append(first.Links, stray)
	second, err := pr.Route(ce.AggKlu, ce.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(second.Nodes, ce.WiredKlu)
	_ = append(second.Links, nil)
	if nodesA[len(nodesA)-1] != ce.UPFEdgeKlu || linksA[len(linksA)-1] != stray {
		t.Fatal("one caller's append overwrote another's: returned paths share spare capacity")
	}
	again, err := pr.Route(ce.AggKlu, ce.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	if !samePath(again, want) || !again.Valid() {
		t.Fatalf("route changed after caller appends: %v, want %v", again, want)
	}
}
