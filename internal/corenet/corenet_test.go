package corenet

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
	"repro/internal/ran"
	"repro/internal/topo"
)

func newUP() *UserPlane {
	return NewUserPlane(topo.BuildCentralEurope())
}

func TestSmartNICClaims(t *testing.T) {
	// Jain [32] / Panda [33]: 2x throughput, 3.75x lower packet latency.
	ratioLat := float64(HostDatapath.PerPacket) / float64(SmartNICDatapath.PerPacket)
	if math.Abs(ratioLat-3.75) > 1e-9 {
		t.Errorf("latency factor = %v, want 3.75", ratioLat)
	}
	ratioTp := SmartNICDatapath.CapacityMpps / HostDatapath.CapacityMpps
	if math.Abs(ratioTp-2.0) > 1e-9 {
		t.Errorf("throughput factor = %v, want 2.0", ratioTp)
	}
}

func TestDatapathLatencyGrowsWithLoad(t *testing.T) {
	f := func(a, b float64) bool {
		x := math.Abs(math.Mod(a, 1.5))
		y := math.Abs(math.Mod(b, 1.5))
		if x > y {
			x, y = y, x
		}
		return HostDatapath.Latency(x) <= HostDatapath.Latency(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if HostDatapath.Latency(0) != HostDatapath.PerPacket {
		t.Fatal("unloaded latency should equal PerPacket")
	}
	// Near saturation the latency is clamped but still finite and large.
	if l := HostDatapath.Latency(10); l < 10*HostDatapath.PerPacket {
		t.Fatalf("saturated latency = %v, want >= 10x PerPacket", l)
	}
}

func TestEstablishCentralTrombones(t *testing.T) {
	up := newUP()
	sp, err := up.Establish(up.Central, up.CE.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	// Backhaul climbs to Vienna (~235 km), breakout takes the Table I
	// detour (~2437 km): the session's wired RTT alone is ~32 ms.
	if km := sp.Backhaul.DistKm(); km < 200 || km > 270 {
		t.Errorf("backhaul = %.0f km", km)
	}
	if km := sp.Breakout.DistKm(); km < 2300 || km > 2800 {
		t.Errorf("breakout = %.0f km", km)
	}
	rtt := sp.WiredRTT(0.2)
	if rtt < 28*time.Millisecond || rtt > 40*time.Millisecond {
		t.Errorf("central wired RTT = %v, want ~30-35 ms", rtt)
	}
}

func TestEstablishEdgeMEC(t *testing.T) {
	up := newUP()
	sp, err := up.Establish(up.Edge, nil) // MEC-local service
	if err != nil {
		t.Fatal(err)
	}
	if sp.Breakout.Hops() != 0 {
		t.Fatal("MEC-local service should have no breakout path")
	}
	rtt := sp.WiredRTT(0.2)
	if rtt > 2*time.Millisecond {
		t.Errorf("edge wired RTT = %v, want < 2 ms", rtt)
	}
}

func TestEdgeUPFHitsPaperBand(t *testing.T) {
	// Section V-B: UPF integration achieves 5-6.2 ms end-to-end
	// (Barrachina [30], Goshi [31]) with a URLLC slice radio leg.
	up := newUP()
	sp, err := up.Establish(up.Edge, nil)
	if err != nil {
		t.Fatal(err)
	}
	cond := ran.Conditions{Load: 0.3, SiteKm: 0.5}
	mean := up.MeanRTT(ran.Profile5GURLLC, cond, sp, 0.3)
	if mean < 4*time.Millisecond || mean > 7*time.Millisecond {
		t.Errorf("edge UPF mean RTT = %v, want 5-6.2 ms band", mean)
	}
}

func TestCentralVsEdgeReduction(t *testing.T) {
	// The paper claims up to 90 % reduction vs the > 62 ms measurements.
	up := newUP()
	central, err := up.Establish(up.Central, up.CE.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := up.Establish(up.Edge, nil)
	if err != nil {
		t.Fatal(err)
	}
	condBusy := ran.Conditions{Load: 0.8, SiteKm: 1.0}
	condSlice := ran.Conditions{Load: 0.3, SiteKm: 0.5}
	c := up.MeanRTT(ran.Profile5G, condBusy, central, 0.2)
	e := up.MeanRTT(ran.Profile5GURLLC, condSlice, edge, 0.2)
	reduction := 1 - float64(e)/float64(c)
	if reduction < 0.85 {
		t.Errorf("edge reduction = %.2f, want >= 0.85 (paper: up to 90%%)", reduction)
	}
}

func TestEstablishRejectsNoMEC(t *testing.T) {
	up := newUP()
	if _, err := up.Establish(up.Central, nil); err == nil {
		t.Fatal("central UPF without MEC should reject local service")
	}
}

func TestSampleRTTPositiveAndAboveWired(t *testing.T) {
	up := newUP()
	sp, err := up.Establish(up.Central, up.CE.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	rng := des.NewRNG(5)
	wired := sp.WiredRTT(0.2)
	for i := 0; i < 1000; i++ {
		v := up.SampleRTT(rng, ran.Profile5G, ran.Conditions{Load: 0.5, SiteKm: 1}, sp, 0.2)
		if v <= wired {
			t.Fatalf("sample %v not above wired floor %v", v, wired)
		}
	}
}

func TestAssignCentralAndEdge(t *testing.T) {
	up := newUP()
	flows := []Flow{
		{ID: 1, Sensitive: true, RateMpps: 0.4},
		{ID: 2, Sensitive: false, RateMpps: 0.9},
	}
	a := up.Assign(SelectCentral, flows)
	if a[1] != up.Central || a[2] != up.Central {
		t.Fatal("central policy should anchor everything centrally")
	}
	if up.Central.OfferedMpps() != 1.3 || up.Edge.OfferedMpps() != 0 {
		t.Fatal("offered load accounting wrong")
	}
	a = up.Assign(SelectEdge, flows)
	if a[1] != up.Edge || a[2] != up.Edge {
		t.Fatal("edge policy should anchor everything at the edge")
	}
}

func TestAssignDynamicPrefersEdgeForSensitive(t *testing.T) {
	up := newUP()
	flows := []Flow{
		{ID: 1, Sensitive: true, RateMpps: 0.5},
		{ID: 2, Sensitive: false, RateMpps: 0.5},
		{ID: 3, Sensitive: true, RateMpps: 0.4},
	}
	a := up.Assign(SelectDynamic, flows)
	if a[1] != up.Edge || a[3] != up.Edge {
		t.Fatal("sensitive flows should anchor at the edge")
	}
	if a[2] != up.Central {
		t.Fatal("bulk flow should be offloaded to the central UPF")
	}
}

func TestAssignDynamicRespectsEdgeCapacity(t *testing.T) {
	up := newUP()
	// Edge capacity is 1.6 Mpps with 0.85 headroom = 1.36 budget.
	flows := []Flow{
		{ID: 1, Sensitive: true, RateMpps: 0.8},
		{ID: 2, Sensitive: true, RateMpps: 0.5},
		{ID: 3, Sensitive: true, RateMpps: 0.4}, // would exceed the budget
	}
	a := up.Assign(SelectDynamic, flows)
	edgeLoad := up.Edge.OfferedMpps()
	if edgeLoad > up.Edge.Datapath.CapacityMpps*0.85+1e-9 {
		t.Fatalf("edge overloaded: %v Mpps", edgeLoad)
	}
	spill := 0
	for _, f := range flows {
		if a[f.ID] == up.Central {
			spill++
		}
	}
	if spill != 1 {
		t.Fatalf("spilled flows = %d, want 1", spill)
	}
	// Repeatability: Assign must reset accounting.
	up.Assign(SelectDynamic, flows)
	if math.Abs(up.Edge.OfferedMpps()-edgeLoad) > 1e-12 {
		t.Fatal("Assign does not reset offered load")
	}
}

func TestAssignDeterministicOrder(t *testing.T) {
	up := newUP()
	flows := []Flow{
		{ID: 1, Sensitive: true, RateMpps: 0.7},
		{ID: 2, Sensitive: true, RateMpps: 0.7},
		{ID: 3, Sensitive: true, RateMpps: 0.7},
	}
	a1 := up.Assign(SelectDynamic, flows)
	a2 := up.Assign(SelectDynamic, flows)
	for id := range a1 {
		if a1[id] != a2[id] {
			t.Fatal("dynamic assignment not deterministic")
		}
	}
}

func TestPolicyString(t *testing.T) {
	if SelectCentral.String() != "central" || SelectDynamic.String() != "dynamic" {
		t.Fatal("policy names wrong")
	}
	if SelectionPolicy(9).String() == "" {
		t.Fatal("unknown policy should render")
	}
}
