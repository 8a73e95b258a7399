// Package energy implements the paper's future-work direction
// "energy-efficient network management": a first-order energy model for
// the deployments the other experiments compare. It accounts for
//
//   - radio transmission energy per bit (technology-dependent: 6G's
//     higher spectral efficiency cuts joules per bit);
//   - UE radio-on time (latency directly costs energy: every extra
//     millisecond of round trip keeps the radio in its active state);
//   - UPF datapath energy per packet (the SmartNIC path trades a small
//     fixed NIC power for a large per-packet host CPU saving);
//   - fibre transport energy per bit-kilometre, which makes the 2500 km
//     Table I detour measurably wasteful even at wireline efficiency.
//
// The model's absolute numbers are engineering estimates (documented per
// constant); the experiments only rely on ratios between deployments.
package energy

import (
	"fmt"
	"time"

	"repro/internal/corenet"
)

// RadioModel captures a technology's energy behaviour at the UE.
type RadioModel struct {
	Name string
	// ActivePowerW is the UE radio power while a request is in flight.
	ActivePowerW float64
	// TxNanojoulePerBit is the marginal transmission energy.
	TxNanojoulePerBit float64
}

// Radio models, loosely following published UE power studies: 5G NR
// modems draw ~2.5 W active; a URLLC slice keeps the same silicon but
// shorter active windows; the 6G target assumes ~2x efficiency.
var (
	Radio5G    = RadioModel{Name: "5G", ActivePowerW: 2.5, TxNanojoulePerBit: 45}
	Radio5GURL = RadioModel{Name: "5G-URLLC", ActivePowerW: 2.2, TxNanojoulePerBit: 45}
	Radio6G    = RadioModel{Name: "6G", ActivePowerW: 1.6, TxNanojoulePerBit: 20}
)

// Transport constants.
const (
	// FibreNanojoulePerBitKm is the transport energy of long-haul fibre
	// (amplifiers + routers amortized): ~0.05 nJ per bit-km.
	FibreNanojoulePerBitKm = 0.05
	// HostUPFMicrojoulePerPacket is the per-packet CPU energy of a
	// host-path UPF (~15 uJ: a fraction of a core-millisecond).
	HostUPFMicrojoulePerPacket = 15.0
	// SmartNICMicrojoulePerPacket is the NIC-path per-packet energy.
	SmartNICMicrojoulePerPacket = 3.0
)

// UPFJoulesPerPacket returns the datapath energy per packet.
func UPFJoulesPerPacket(d corenet.DatapathSpec) float64 {
	if d.Name == corenet.SmartNICDatapath.Name {
		return SmartNICMicrojoulePerPacket * 1e-6
	}
	return HostUPFMicrojoulePerPacket * 1e-6
}

// Request describes one edge-AI exchange for energy accounting.
type Request struct {
	RTT        time.Duration // end-to-end round trip the UE waits for
	PayloadKB  float64       // bytes moved over the air (both directions)
	WiredKm    float64       // one-way fibre kilometres traversed
	Packets    int           // packets through the UPF (both directions)
	Radio      RadioModel
	Datapath   corenet.DatapathSpec
	ServerIdle float64 // server-side joules (MEC host vs cloud share)
}

// Joules returns the total energy of the request.
func (r Request) Joules() float64 {
	bits := r.PayloadKB * 8192
	radioActive := r.Radio.ActivePowerW * r.RTT.Seconds()
	radioTx := r.Radio.TxNanojoulePerBit * bits * 1e-9
	fibre := FibreNanojoulePerBitKm * bits * r.WiredKm * 2 * 1e-9
	upf := float64(r.Packets) * UPFJoulesPerPacket(r.Datapath)
	return radioActive + radioTx + fibre + upf + r.ServerIdle
}

// Breakdown itemizes the request energy.
func (r Request) Breakdown() map[string]float64 {
	bits := r.PayloadKB * 8192
	return map[string]float64{
		"radio-active": r.Radio.ActivePowerW * r.RTT.Seconds(),
		"radio-tx":     r.Radio.TxNanojoulePerBit * bits * 1e-9,
		"fibre":        FibreNanojoulePerBitKm * bits * r.WiredKm * 2 * 1e-9,
		"upf":          float64(r.Packets) * UPFJoulesPerPacket(r.Datapath),
		"server":       r.ServerIdle,
	}
}

// DeploymentEnergy summarizes a deployment's per-request energy.
type DeploymentEnergy struct {
	Name           string
	JoulesPerReq   float64
	MilliwattHours float64 // per 1000 requests, for intuition
	DominantSource string
	RadioShare     float64
}

// Evaluate computes the per-request energy of a deployment described by
// its mean RTT, wired path length, and hardware choices.
func Evaluate(name string, rtt time.Duration, wiredKm float64,
	radio RadioModel, dp corenet.DatapathSpec) DeploymentEnergy {
	req := Request{
		RTT:       rtt,
		PayloadKB: 64, // a sensor frame + response
		WiredKm:   wiredKm,
		Packets:   96, // ~64 KB at 1400 B MTU, both directions
		Radio:     radio,
		Datapath:  dp,
		// MEC hosts amortize over few tenants; hyperscale clouds over
		// many: charge the cloud share slightly lower.
		ServerIdle: 0.004,
	}
	j := req.Joules()
	bd := req.Breakdown()
	dominant, dv := "", -1.0
	for k, v := range bd {
		if v > dv {
			dominant, dv = k, v
		}
	}
	return DeploymentEnergy{
		Name:           name,
		JoulesPerReq:   j,
		MilliwattHours: j * 1000 / 3600 * 1000,
		DominantSource: dominant,
		RadioShare:     (bd["radio-active"] + bd["radio-tx"]) / j,
	}
}

func (d DeploymentEnergy) String() string {
	return fmt.Sprintf("%-24s %.4f J/request (dominant: %s, radio share %.0f%%)",
		d.Name, d.JoulesPerReq, d.DominantSource, 100*d.RadioShare)
}
