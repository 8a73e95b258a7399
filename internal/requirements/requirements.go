// Package requirements encodes the Section II/III analysis: the latency,
// bandwidth and scalability envelopes of next-generation AI applications,
// the capability envelopes of 5G and 6G, and the machinery to check a
// measured deployment against them (the gap analysis whose headline is
// the paper's "exceeds the requirements by approximately 270 %").
package requirements

import (
	"fmt"
	"time"
)

// Class is one application class of the Section III analysis.
type Class struct {
	Name string
	// MaxRTT is the end-to-end round-trip latency budget.
	MaxRTT time.Duration
	// MinMbps is the sustained per-session throughput requirement.
	MinMbps float64
	// DailyGB is the per-device daily data volume.
	DailyGB float64
	// DevicesPerKm2 is the connection-density requirement of the class's
	// deployment scenario.
	DevicesPerKm2 float64
	// Source describes where the paper anchors the numbers.
	Source string
}

// The application catalogue of Sections II-III.
var (
	// ARGaming is the paper's use case: motion-to-photon below 20 ms to
	// avoid motion sickness [12][15], 60 FPS video (16.6 ms frames).
	ARGaming = Class{
		Name: "ar-gaming", MaxRTT: 20 * time.Millisecond, MinMbps: 50,
		DailyGB: 40, DevicesPerKm2: 10_000,
		Source: "motion-to-photon < 20 ms [12][15]; 60 FPS video [13]",
	}
	// InteractiveVideo is the 60 FPS streaming bound: one frame interval.
	InteractiveVideo = Class{
		Name: "interactive-video", MaxRTT: 16600 * time.Microsecond, MinMbps: 35,
		DailyGB: 30, DevicesPerKm2: 20_000,
		Source: "60 FPS -> 16.6 ms frame interval [13]",
	}
	// UserPerceivedIoT is the end-user budget after protocol overhead.
	UserPerceivedIoT = Class{
		Name: "user-perceived-iot", MaxRTT: 16 * time.Millisecond, MinMbps: 1,
		DailyGB: 0.5, DevicesPerKm2: 100_000,
		Source: "user-perceived latency below 16 ms [13]",
	}
	// AutonomousVehicles need single-digit RTTs and generate ~4 TB/day.
	AutonomousVehicles = Class{
		Name: "autonomous-vehicles", MaxRTT: 5 * time.Millisecond, MinMbps: 100,
		DailyGB: 4000, DevicesPerKm2: 2_000,
		Source: "real-time coordination [6]; up to 4 TB/day (Sec. III-B)",
	}
	// RemoteSurgery combines HD video, haptics and hard deadlines.
	RemoteSurgery = Class{
		Name: "remote-surgery", MaxRTT: 10 * time.Millisecond, MinMbps: 80,
		DailyGB: 15, DevicesPerKm2: 100,
		Source: "telemedicine; > 10 GB/day medical data (Sec. III-B)",
	}
	// SmartFactory automation: 5 TB/day per line, tens of thousands of
	// sensors.
	SmartFactory = Class{
		Name: "smart-factory", MaxRTT: 8 * time.Millisecond, MinMbps: 20,
		DailyGB: 5000, DevicesPerKm2: 50_000,
		Source: "> 5 TB/day per line; tens of thousands of sensors (Sec. III-C)",
	}
	// SmartCity traffic management: Tokyo-scale 50,000 intersections.
	SmartCity = Class{
		Name: "smart-city", MaxRTT: 50 * time.Millisecond, MinMbps: 5,
		DailyGB: 50, DevicesPerKm2: 200_000,
		Source: "50,000 intersections, millions of sensors (Sec. III-C)",
	}
)

// Catalog lists all classes in presentation order.
var Catalog = []Class{
	ARGaming, InteractiveVideo, UserPerceivedIoT,
	AutonomousVehicles, RemoteSurgery, SmartFactory, SmartCity,
}

// Tech is a network generation's capability envelope (Section II).
type Tech struct {
	Name string
	// AirLatency is the one-way radio latency target.
	AirLatency time.Duration
	// PeakGbps is the peak data rate.
	PeakGbps float64
	// DevicesPerKm2 is the supported connection density.
	DevicesPerKm2 float64
}

var (
	// FiveG is the deployed standard's target envelope [34].
	FiveG = Tech{Name: "5G", AirLatency: time.Millisecond, PeakGbps: 20, DevicesPerKm2: 100_000}
	// SixG is the Section II vision: 100 microsecond latency [5], up to
	// 1 Tb/s [8], and an order-of-magnitude denser device fabric [9].
	SixG = Tech{Name: "6G", AirLatency: 100 * time.Microsecond, PeakGbps: 1000, DevicesPerKm2: 1_000_000}
)

// GlobalDevices2030 is the paper's 2030 forecast: over 125 billion
// connected devices [11].
const GlobalDevices2030 = 125e9

// Verdict is the outcome of checking one class against a measurement.
type Verdict struct {
	Class      Class
	MeasuredMs float64
	Satisfied  bool
	// ExcessPct is how far the measurement exceeds the budget in percent
	// (negative when within budget): the paper's "~270 %" metric.
	ExcessPct float64
}

func (v Verdict) String() string {
	state := "MET"
	if !v.Satisfied {
		state = fmt.Sprintf("MISSED by %.0f%%", v.ExcessPct)
	}
	return fmt.Sprintf("%-20s budget %6.1f ms, measured %6.1f ms: %s",
		v.Class.Name, float64(v.Class.MaxRTT)/float64(time.Millisecond), v.MeasuredMs, state)
}

// Check evaluates one class against a measured round-trip latency.
func Check(c Class, measured time.Duration) Verdict {
	budget := float64(c.MaxRTT) / float64(time.Millisecond)
	ms := float64(measured) / float64(time.Millisecond)
	return Verdict{
		Class:      c,
		MeasuredMs: ms,
		Satisfied:  measured <= c.MaxRTT,
		ExcessPct:  (ms - budget) / budget * 100,
	}
}

// CheckAll evaluates the whole catalogue.
func CheckAll(measured time.Duration) []Verdict {
	out := make([]Verdict, len(Catalog))
	for i, c := range Catalog {
		out[i] = Check(c, measured)
	}
	return out
}

// DensitySupported reports whether a technology envelope can host a
// class's device density.
func DensitySupported(t Tech, c Class) bool {
	return t.DevicesPerKm2 >= c.DevicesPerKm2
}

// DailyVolumeSupported reports whether a technology can drain a class's
// daily volume assuming the device gets a 1/1000 time share of one cell's
// peak rate (a deliberately conservative cell-sharing model).
func DailyVolumeSupported(t Tech, c Class) bool {
	shareGbps := t.PeakGbps / 1000
	dayGB := shareGbps / 8 * 86400
	return dayGB >= c.DailyGB
}
