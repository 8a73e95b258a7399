package experiments

import (
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

const testSeed = 42

func TestRegistryComplete(t *testing.T) {
	// Every paper artefact must have a registered driver.
	want := []string{
		"fig1", "fig2", "fig3", "table1",
		"requirements", "gap", "scalability", "capacity", "protocols",
		"peering", "upf", "cpf", "argame",
		"fedlearn", "energy", "resilience",
		"slices", "ric", "tails", "slicing-sweep",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(All()), len(want))
	}
	if len(IDs()) != len(want) {
		t.Errorf("IDs() returned %d entries", len(IDs()))
	}
}

func TestByIDMissing(t *testing.T) {
	if _, ok := ByID("nope"); ok {
		t.Fatal("phantom experiment")
	}
}

func TestAllExperimentsRunAndPassBands(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			art, err := e.Run(testSeed)
			if err != nil {
				t.Fatal(err)
			}
			if art.ID != e.ID {
				t.Errorf("artifact id %q != entry id %q", art.ID, e.ID)
			}
			if art.Text == "" || art.Title == "" {
				t.Error("empty artifact")
			}
			if len(art.Checks) == 0 {
				t.Error("no paper-vs-measured checks")
			}
			for _, c := range art.Checks {
				if !c.InBand {
					t.Errorf("out of band: %s", c)
				}
			}
			if !strings.Contains(art.Text, "paper-vs-measured") {
				t.Error("artifact text missing comparison block")
			}
		})
	}
}

func TestFig2TextShape(t *testing.T) {
	art, err := Fig2(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// The grid must show the 0.0 sparse cells and the extremes.
	if !strings.Contains(art.Text, "0.0") {
		t.Error("Figure 2 text missing 0.0 cells")
	}
	if !strings.Contains(art.Text, "C1") || !strings.Contains(art.Text, "C3") {
		t.Error("Figure 2 text missing extreme cells")
	}
}

func TestTable1TextShape(t *testing.T) {
	art, err := Table1(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, hop := range []string{
		"10.12.128.1",
		"zetservers.peering.cz",
		"amanet-cust.zet.net",
		"195.140.139.133",
	} {
		if !strings.Contains(art.Text, hop) {
			t.Errorf("Table I text missing hop %q", hop)
		}
	}
	if !strings.Contains(art.Text, "Vienna -> Prague -> Bucharest -> Vienna") {
		t.Error("Table I text missing the Figure 4 route")
	}
}

func TestCampaignCacheReuse(t *testing.T) {
	a, err := campaignFor(123)
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaignFor(123)
	if err != nil {
		t.Fatal(err)
	}
	// Drivers share the cache's one read-only result; only campaignRaw
	// hands out a private copy, which a driver may sort or mutate
	// without poisoning later hits.
	if a != b {
		t.Fatal("campaignFor hits must share the cached result")
	}
	raw, err := campaignRaw(123)
	if err != nil {
		t.Fatal(err)
	}
	if raw == b {
		t.Fatal("campaignRaw must return a private copy")
	}
	if raw.MobileAll.Snapshot() != b.MobileAll.Snapshot() ||
		raw.TotalMeasurements != b.TotalMeasurements {
		t.Fatal("campaign cache not reused: statistics differ")
	}
	want := b.TotalMeasurements
	raw.TotalMeasurements = -1
	c, err := campaignFor(123)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalMeasurements != want {
		t.Fatal("mutating a raw result leaked into the cache")
	}
}

// TestTailsReSimulatesOverCompactCache is the regression test for the
// raw-samples gap: with a compact (summary-only) record already on disk
// for its scenario, the quantile-deriving tails driver must re-simulate
// and report real tails — not hand back zero quantiles off the compact
// hit, which is exactly what happened before NeedRawSamples existed.
func TestTailsReSimulatesOverCompactCache(t *testing.T) {
	// A seed no other test shares, so the process-wide cache cannot
	// already hold a full in-memory result for it.
	const seed = 987654321
	cfg := campaign.Config{Seed: seed}
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(sweep.ScenarioID(cfg), res); err != nil {
		t.Fatal(err)
	}
	sweep.Shared.AttachStore(st)
	defer sweep.Shared.AttachStore(nil)

	// Sanity: the compact record really is what a moment consumer gets.
	probe, ok := sweep.Shared.Get(sweep.ScenarioID(cfg))
	if !ok || !probe.SummaryOnly {
		t.Fatalf("compact record not served as summary-only (ok=%t)", ok)
	}

	art, err := Tails(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range art.Checks {
		if !c.InBand {
			t.Errorf("tails over a compact cache is out of band: %s", c)
		}
	}
	if strings.Contains(art.Text, "summary-only: true") {
		t.Fatal("tails accepted the summary-only record instead of re-simulating")
	}
}

func TestCheckString(t *testing.T) {
	ok := Check{Metric: "m", Paper: "p", Measured: "x", InBand: true}
	if !strings.Contains(ok.String(), "OK") {
		t.Fatal("in-band check should render OK")
	}
	bad := Check{Metric: "m", Paper: "p", Measured: "x"}
	if !strings.Contains(bad.String(), "OUT-OF-BAND") {
		t.Fatal("out-of-band check should say so")
	}
}
