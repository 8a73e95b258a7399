package argame

import (
	"testing"
	"time"

	"repro/internal/requirements"
)

func TestBaselineUnplayable(t *testing.T) {
	rep, err := Run(Config{Seed: 1, Deployment: DeployBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Playable {
		t.Fatal("the measured 5G deployment must not be playable")
	}
	if rep.DeadlineHitRate > 0.05 {
		t.Fatalf("baseline hit rate = %.2f, should be near zero (RTL > 60 ms)", rep.DeadlineHitRate)
	}
	if rep.MeanM2P < 40*time.Millisecond {
		t.Fatalf("baseline mean M2P = %v, want > 40 ms", rep.MeanM2P)
	}
	if rep.GhostHits == 0 {
		t.Fatal("baseline should exhibit ghost hits")
	}
}

func TestEdgeUPFPlayable(t *testing.T) {
	rep, err := Run(Config{Seed: 1, Deployment: DeployEdgeUPF})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Playable {
		t.Fatalf("edge UPF deployment should be playable: %v", rep)
	}
	if rep.MeanM2P > 12*time.Millisecond {
		t.Fatalf("edge mean M2P = %v, want well under the 20 ms budget", rep.MeanM2P)
	}
}

func TestSixGComfortablyPlayable(t *testing.T) {
	rep, err := Run(Config{Seed: 1, Deployment: DeploySixG})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Playable || rep.GhostHits != 0 {
		t.Fatalf("6G session should be flawless: %v", rep)
	}
	if rep.MeanM2P > 4*time.Millisecond {
		t.Fatalf("6G mean M2P = %v, want < 4 ms", rep.MeanM2P)
	}
	if rep.P95M2P > 8*time.Millisecond {
		t.Fatalf("6G p95 M2P = %v", rep.P95M2P)
	}
}

func TestDeploymentOrdering(t *testing.T) {
	reps, err := RunAll(5, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(Deployments) {
		t.Fatalf("reports = %d", len(reps))
	}
	// Mean motion-to-photon must strictly improve along the deployment
	// ladder: baseline > peered > edge > 6G.
	for i := 1; i < len(reps); i++ {
		if reps[i].MeanM2P >= reps[i-1].MeanM2P {
			t.Errorf("%v (%v) should beat %v (%v)",
				reps[i].Deployment, reps[i].MeanM2P, reps[i-1].Deployment, reps[i-1].MeanM2P)
		}
	}
	// Hit rate must be monotone non-decreasing.
	for i := 1; i < len(reps); i++ {
		if reps[i].DeadlineHitRate < reps[i-1].DeadlineHitRate-1e-9 {
			t.Errorf("hit rate regressed at %v", reps[i].Deployment)
		}
	}
}

func TestFrameCount(t *testing.T) {
	rep, err := Run(Config{Seed: 2, Deployment: DeployEdgeUPF, Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// 10 s at 16.6 ms per frame ~ 602 frames.
	if rep.Frames < 595 || rep.Frames > 610 {
		t.Fatalf("frames = %d, want ~602", rep.Frames)
	}
	if rep.Throws < 4 || rep.Throws > 6 {
		t.Fatalf("throws = %d, want ~5", rep.Throws)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(Config{Seed: 9, Deployment: DeployBaseline, Duration: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 9, Deployment: DeployBaseline, Duration: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanM2P != b.MeanM2P || a.GhostHits != b.GhostHits {
		t.Fatal("game simulation not deterministic")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Seed: 1, CellA: "zz"}); err == nil {
		t.Fatal("malformed cell should fail")
	}
	if _, err := Run(Config{Seed: 1, Deployment: Deployment(42)}); err == nil {
		t.Fatal("unknown deployment should fail")
	}
}

func TestBudgetClass(t *testing.T) {
	if requirements.ARGaming.MaxRTT != Deadline {
		t.Fatal("budget class must carry the 20 ms deadline")
	}
}

func TestDeploymentString(t *testing.T) {
	if DeployBaseline.String() != "5G-baseline" || Deployment(9).String() == "" {
		t.Fatal("deployment names wrong")
	}
}
