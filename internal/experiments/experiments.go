// Package experiments contains one driver per table/figure/claim of the
// paper (the per-experiment index of DESIGN.md). Every driver returns an
// Artifact: a structured, rendered reproduction of the corresponding
// paper artefact, plus the paper-vs-measured comparison rows used by
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

// Artifact is one reproduced table or figure.
type Artifact struct {
	ID    string // e.g. "fig2"
	Title string
	Text  string // rendered, printable reproduction
	// Checks lists paper-vs-measured comparison rows.
	Checks []Check
}

// Check is one paper-vs-measured comparison.
type Check struct {
	Metric   string
	Paper    string
	Measured string
	// InBand reports whether the measured value matches the paper's
	// shape (who wins / rough magnitude), per the reproduction contract.
	InBand bool
}

func (c Check) String() string {
	state := "OK"
	if !c.InBand {
		state = "OUT-OF-BAND"
	}
	return fmt.Sprintf("%-34s paper: %-22s measured: %-22s %s", c.Metric, c.Paper, c.Measured, state)
}

// RenderChecks renders the comparison block appended to artifacts.
func RenderChecks(checks []Check) string {
	var b strings.Builder
	b.WriteString("\npaper-vs-measured:\n")
	for _, c := range checks {
		b.WriteString("  " + c.String() + "\n")
	}
	return b.String()
}

// Runner produces an artifact for a seed.
type Runner func(seed uint64) (Artifact, error)

// Entry is a registered experiment.
type Entry struct {
	ID    string
	Title string
	Run   Runner
}

var registry []Entry

func register(id, title string, run Runner) {
	registry = append(registry, Entry{ID: id, Title: title, Run: run})
}

// All returns the registered experiments in registration order.
func All() []Entry { return append([]Entry(nil), registry...) }

// ByID finds an experiment.
func ByID(id string) (Entry, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

// IDs lists all experiment ids.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	sort.Strings(out)
	return out
}

// --- campaign cache --------------------------------------------------------

// campaignFor runs (or reuses) the default campaign for a seed through
// the process-wide sweep cache. The key is the full scenario content
// hash — not the bare seed — so drivers never conflate differing
// configs, and sweeps that already ran a scenario hand the drivers a
// free hit (and vice versa). Concurrent drivers asking for the same
// seed de-duplicate to one simulation. The result is the cache's own
// shared copy: drivers read summaries, reports and extremes from it
// and must not modify it — a driver that sorts or mutates samples
// goes through campaignRaw instead.
func campaignFor(seed uint64) (*campaign.Result, error) {
	res, _, err := sweep.Shared.Resolve(sweep.ScenarioOf(campaign.Config{Seed: seed}), sweep.Want{})
	return res, err
}

// campaignRaw is campaignFor for drivers that derive quantiles, CDFs or
// histograms from raw per-cell samples. It returns a private copy the
// driver may sort in place, and a summary-only cache hit — a compact
// disk record — is treated as a miss and the campaign re-simulates, so
// such drivers never compute tails over silently absent samples.
func campaignRaw(seed uint64) (*campaign.Result, error) {
	res, _, err := sweep.Shared.Resolve(sweep.ScenarioOf(campaign.Config{Seed: seed}), sweep.Want{Raw: true})
	return res, err
}

// UseDiskCache layers a persistent result store under the shared
// campaign cache, so artefact regeneration re-uses scenarios completed
// in earlier processes (and sweeps run with the same cache directory).
// Compact mode stores summary-only records; artefacts that only need
// moments are unaffected, while drivers needing raw-sample quantiles
// (the tails driver) re-simulate their campaign once per process
// instead of reading zeros off a compact record.
func UseDiskCache(dir string, compact bool) error {
	st, err := store.Open(dir, store.Options{Compact: compact})
	if err != nil {
		return err
	}
	sweep.Shared.AttachStore(st)
	return nil
}
