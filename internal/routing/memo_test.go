package routing

import (
	"errors"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/topo"
)

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

// TestRouteMemoFollowsTopologyChanges routes one pair through a series
// of graph edits. After each edit the long-lived router must answer
// exactly what a router built fresh on the edited graph answers, and
// the answer must differ from the previous one, so a stale memo hit
// cannot pass.
func TestRouteMemoFollowsTopologyChanges(t *testing.T) {
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
			t.Fatalf("%s: memoized router routes %v, fresh router %v", step, got, want)
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

// TestRouteMemoErrorClearsOnRestore checks that a memoized ErrNoRoute
// is an answer for one network state only.
func TestRouteMemoErrorClearsOnRestore(t *testing.T) {
	ce := topo.BuildCentralEurope()
	pr := NewPolicyRouter(ce.Net)
	l := failLink(t, ce.Net, "zetservers.peering.cz", "vie-dr2-cr1.zet.net")
	for i := 0; i < 2; i++ { // the second call is a memo hit
		if _, err := pr.Route(ce.AggKlu, ce.ProbeUni); !errors.Is(err, ErrNoRoute) {
			t.Fatalf("call %d on the partitioned graph: err = %v, want ErrNoRoute", i, err)
		}
	}
	l.Restore()
	if _, err := pr.Route(ce.AggKlu, ce.ProbeUni); err != nil {
		t.Fatalf("memoized ErrNoRoute survived Restore: %v", err)
	}
}

// TestRouteMemoAppendDoesNotAlias checks that callers appending to the
// slices of a memoized path neither change the memo nor see each
// other's appends.
func TestRouteMemoAppendDoesNotAlias(t *testing.T) {
	ce, pr := build()
	first, err := pr.Route(ce.AggKlu, ce.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	want := Path{
		Nodes: append([]*topo.Node(nil), first.Nodes...),
		Links: append([]*topo.Link(nil), first.Links...),
	}
	// Two callers extend the same memoized path the way appendPath grows
	// a route. With a shared backing array the second append would
	// overwrite the first one's element.
	stray := ce.Net.LinkBetween(ce.AggKlu, ce.UPFEdgeKlu)
	nodesA, linksA := append(first.Nodes, ce.UPFEdgeKlu), append(first.Links, stray)
	second, err := pr.Route(ce.AggKlu, ce.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(second.Nodes, ce.WiredKlu)
	_ = append(second.Links, nil)
	if nodesA[len(nodesA)-1] != ce.UPFEdgeKlu || linksA[len(linksA)-1] != stray {
		t.Fatal("one caller's append overwrote another's: memoized slices share spare capacity")
	}
	again, err := pr.Route(ce.AggKlu, ce.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	if !samePath(again, want) || !again.Valid() {
		t.Fatalf("memoized path changed after caller appends: %v, want %v", again, want)
	}
}

// BenchmarkHotRouteMemo measures a memo hit: the steady state of
// Route for every (src, dst) pair after its first call.
func BenchmarkHotRouteMemo(b *testing.B) {
	ce, pr := build()
	if _, err := pr.Route(ce.UPFVienna, ce.ProbeUni); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.Route(ce.UPFVienna, ce.ProbeUni); err != nil {
			b.Fatal(err)
		}
	}
}
