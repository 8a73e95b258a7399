package topo

import (
	"testing"
	"time"

	"repro/internal/geo"
)

func TestRelInvert(t *testing.T) {
	if RelProvider.Invert() != RelCustomer || RelCustomer.Invert() != RelProvider {
		t.Fatal("provider/customer inversion wrong")
	}
	if RelPeer.Invert() != RelPeer || RelInternal.Invert() != RelInternal {
		t.Fatal("symmetric relationships must self-invert")
	}
}

func TestLinkPropDelay(t *testing.T) {
	nw := NewNetwork()
	as := nw.AddAS(1, "a")
	a := nw.AddNode(&Node{Name: "a", AS: as, Pos: geo.Klagenfurt})
	b := nw.AddNode(&Node{Name: "b", AS: as, Pos: geo.Vienna})
	l := nw.Connect(a, b, 0, RelInternal, 10, 0)
	// ~235 km at 5 us/km ~ 1.175 ms one-way.
	if d := l.PropDelay(); d < 1100*time.Microsecond || d > 1250*time.Microsecond {
		t.Fatalf("prop delay = %v", d)
	}
	if l.QueueDelay() != 0 {
		t.Fatal("zero-util link should have no queue delay")
	}
}

func TestLinkQueueDelayMonotone(t *testing.T) {
	nw := NewNetwork()
	as := nw.AddAS(1, "a")
	a := nw.AddNode(&Node{Name: "a", AS: as})
	b := nw.AddNode(&Node{Name: "b", AS: as})
	prev := time.Duration(-1)
	for _, u := range []float64{0, 0.2, 0.5, 0.8, 0.95, 0.99} {
		l := Link{A: a, B: b, Util: u}
		q := l.QueueDelay()
		if q < prev {
			t.Fatalf("queue delay not monotone at util %v", u)
		}
		prev = q
	}
}

func TestLinkOtherAndRelFrom(t *testing.T) {
	nw := NewNetwork()
	asA := nw.AddAS(1, "a")
	asB := nw.AddAS(2, "b")
	a := nw.AddNode(&Node{Name: "a", AS: asA})
	b := nw.AddNode(&Node{Name: "b", AS: asB})
	l := nw.Connect(a, b, 10, RelCustomer, 10, 0) // a is customer of b
	if l.Other(a) != b || l.Other(b) != a {
		t.Fatal("Other wrong")
	}
	if l.RelFrom(a) != RelCustomer || l.RelFrom(b) != RelProvider {
		t.Fatal("RelFrom wrong")
	}
}

func TestConnectValidation(t *testing.T) {
	nw := NewNetwork()
	asA := nw.AddAS(1, "a")
	asB := nw.AddAS(2, "b")
	a := nw.AddNode(&Node{Name: "a", AS: asA})
	b := nw.AddNode(&Node{Name: "b", AS: asB})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("self link", func() { nw.Connect(a, a, 1, RelInternal, 1, 0) })
	mustPanic("internal across ASes", func() { nw.Connect(a, b, 1, RelInternal, 1, 0) })
	c := nw.AddNode(&Node{Name: "c", AS: asA})
	mustPanic("external inside AS", func() { nw.Connect(a, c, 1, RelPeer, 1, 0) })
	mustPanic("duplicate name", func() { nw.AddNode(&Node{Name: "a", AS: asA}) })
}

func TestNetworkLookup(t *testing.T) {
	ce := BuildCentralEurope()
	if ce.Net.Lookup("probe.uni-klu.ac.at") != ce.ProbeUni {
		t.Fatal("lookup by name failed")
	}
	if ce.Net.Lookup("nope") != nil {
		t.Fatal("lookup of unknown should be nil")
	}
	if got := ce.Net.LinkBetween(ce.AggKlu, ce.UPFVienna); got == nil {
		t.Fatal("backhaul link missing")
	}
	if ce.Net.LinkBetween(ce.ProbeUni, ce.UPFVienna) != nil {
		t.Fatal("phantom link")
	}
}

func TestCentralEuropeStructure(t *testing.T) {
	ce := BuildCentralEurope()
	nw := ce.Net

	// Table I node names must all exist.
	for _, name := range []string{
		"gw.upf.vie.mobile-at.net",
		"unn-37-19-223-61.datapacket.com",
		"vl204.vie-itx1-core-2.cdn77.com",
		"zetservers.peering.cz",
		"vie-dr2-cr1.zet.net",
		"amanet-cust.zet.net",
		"ae2-97.mx204-1.ix.vie.at.as39912.net",
		"003-228-016-195.ascus.at",
		"180-246-016-195.ascus.at",
		"probe.uni-klu.ac.at",
	} {
		if nw.Lookup(name) == nil {
			t.Errorf("missing Table I node %q", name)
		}
	}

	// The long-haul distances must reflect real geography.
	backhaul := nw.LinkBetween(ce.AggKlu, ce.UPFVienna)
	if backhaul.DistKm < 200 || backhaul.DistKm > 270 {
		t.Errorf("Klagenfurt-Vienna backhaul = %.0f km", backhaul.DistKm)
	}
	zetHaul := nw.LinkBetween(nw.MustLookup("zetservers.peering.cz"), nw.MustLookup("vie-dr2-cr1.zet.net"))
	if zetHaul.DistKm < 1000 || zetHaul.DistKm > 1150 {
		t.Errorf("Prague-Bucharest haul = %.0f km", zetHaul.DistKm)
	}
}

func TestCentralEuropeNoDirectLocalRoute(t *testing.T) {
	// Before local peering the mobile operator must have no Klagenfurt
	// exit other than through its Vienna transit: every external link of
	// the MNO AS must land in Vienna.
	ce := BuildCentralEurope()
	for _, l := range ce.Net.Links() {
		if l.Rel == RelInternal {
			continue
		}
		aMNO := l.A.AS.Name == "mobile-at"
		bMNO := l.B.AS.Name == "mobile-at"
		if !aMNO && !bMNO {
			continue
		}
		ext := l.A
		if aMNO {
			ext = l.B
		}
		mnoSide := l.Other(ext)
		if mnoSide.City != "Vienna" {
			t.Errorf("MNO external link at %s (%s), want Vienna-only before peering",
				mnoSide.Name, mnoSide.City)
		}
	}
}

func TestEnableLocalPeeringIdempotent(t *testing.T) {
	ce := BuildCentralEurope()
	before := len(ce.Net.Links())
	ce.EnableLocalPeering()
	after := len(ce.Net.Links())
	if after != before+1 {
		t.Fatalf("peering added %d links, want 1", after-before)
	}
	ce.EnableLocalPeering()
	if len(ce.Net.Links()) != after {
		t.Fatal("EnableLocalPeering is not idempotent")
	}
	if !ce.LocalPeeringEnabled() {
		t.Fatal("flag not set")
	}
}

func TestNodeKindString(t *testing.T) {
	if KindRouter.String() != "router" || KindIXP.String() != "ixp" {
		t.Fatal("kind names wrong")
	}
	if NodeKind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}
