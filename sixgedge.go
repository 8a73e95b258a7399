// Package sixgedge is the public facade of the 6G-edge analytical
// framework: a deterministic simulation study reproducing "6G
// Infrastructures for Edge AI: An Analytical Perspective" (IPPS 2025).
//
// The facade wraps the internal packages behind a small, stable surface:
//
//   - RunCampaign executes the Klagenfurt 5G measurement campaign
//     (Figures 1-3 of the paper) over a simulated central-European
//     topology and returns per-cell latency statistics;
//   - RunSweep expands a scenario grid (seeds × profiles × peering ×
//     UPF placement × fleet sizes × probe sets) and executes it on a
//     bounded worker pool, deterministically at any worker count, with
//     content-hash result caching and JSONL export;
//   - Experiments lists one driver per table/figure/claim of the paper;
//     RunExperiment regenerates a single artefact;
//   - EvaluatePeering / EvaluateUPF / EvaluateCPF score the paper's three
//     Section V recommendations;
//   - PlayARGame simulates the Section IV-A augmented-reality use case on
//     a chosen deployment.
//
// Everything is seeded and exactly reproducible: the same seed yields the
// same bytes of output.
package sixgedge

import (
	"fmt"

	"repro/internal/argame"
	"repro/internal/buildinfo"
	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/recommend"
	"repro/internal/slicing"
	"repro/internal/sweep"
	"repro/internal/sweep/cluster"
	"repro/internal/sweep/serve"
	"repro/internal/sweep/store"
)

// Version reports the build identity (module version or VCS revision)
// every binary's -version flag and every daemon's /statsz share.
func Version() string { return buildinfo.Version() }

// CampaignConfig parameterizes the measurement campaign. The zero value
// plus a seed reproduces the paper's setup: three mobile nodes, eight
// sector probes, public 5G, central UPF.
type CampaignConfig = campaign.Config

// CampaignResult holds per-cell statistics and campaign aggregates.
type CampaignResult = campaign.Result

// RunCampaign executes the Section IV measurement campaign.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	return campaign.Run(cfg)
}

// SweepGrid enumerates scenario axes (seeds, radio profiles, peering,
// UPF placement, node counts, target-cell sets, wired-baseline rounds,
// slicing placement strategies, AR-game deployments); it expands to the
// cartesian product of campaign configs, each with a stable
// content-hash scenario ID.
type SweepGrid = sweep.Grid

// SlicingPlacement derives a campaign's probe sites from a Section V-C
// hypervisor-placement strategy (CampaignConfig.Slicing, or the sweep's
// SlicingStrategies axis).
type SlicingPlacement = campaign.SlicingPlacement

// SlicingStrategy selects a placement objective; SlicingNone keeps the
// paper's hand-picked probes.
type SlicingStrategy = slicing.Strategy

// Slicing placement strategies, re-exported for grid building.
const (
	SlicingNone        = slicing.StrategyNone
	SlicingLatency     = slicing.StrategyLatency
	SlicingResilience  = slicing.StrategyResilience
	SlicingLoadBalance = slicing.StrategyLoadBalance
)

// ARGameMode switches a campaign into the Section IV-A AR-session mode
// (CampaignConfig.ARGame, or the sweep's ARGameDeployments axis).
type ARGameMode = campaign.ARGameMode

// GameDeployNone is the "plain ping campaign" point of the sweep's
// AR-deployment axis; the concrete deployments are in GameDeployments.
const GameDeployNone = argame.DeployNone

// SweepOptions bounds the worker pool and selects the result cache.
type SweepOptions = sweep.Options

// SweepResult holds every scenario run in grid order, per-variant
// aggregates merged across replications, and recommendation deltas; its
// JSONL export is byte-identical at any worker count. Scenario results
// served by a cache are shared and read-only unless
// SweepOptions.NeedRawSamples asked for private copies.
type SweepResult = sweep.Result

// RunSweep executes a scenario sweep over a bounded worker pool.
// Determinism holds at any worker count: each scenario owns an isolated
// simulator seeded from its config, and output order is grid order.
func RunSweep(g SweepGrid, opt SweepOptions) (*SweepResult, error) {
	return sweep.Run(g, opt)
}

// ServeOptions configures the sweep-serving HTTP service (cache or
// cache directory, simulation worker pool, admission-queue depth,
// grid-job bounds).
type ServeOptions = serve.Options

// SweepServer is the resident scenario-query service: it owns a sweep
// cache/store and serves it as a read-through, simulate-on-demand HTTP
// API (POST /v1/scenario, streaming POST /v1/sweep byte-identical to
// cmd/sweep output, POST /v1/deltas, /healthz, /statsz). Misses
// simulate on a bounded worker pool behind an explicit admission
// queue; a full queue sheds load with 429 instead of stacking
// goroutines.
type SweepServer = serve.Server

// NewSweepServer builds the service without binding a socket; callers
// mount it (a SweepServer is an http.Handler) themselves or call
// ListenAndServe/Shutdown for the full graceful lifecycle (drain
// in-flight simulations, flush the store, exit). cmd/sweepd is the
// packaged daemon.
func NewSweepServer(opts ServeOptions) (*SweepServer, error) {
	return serve.New(opts)
}

// ServeSweep serves the sweep scenario API on addr until the listener
// fails, releasing the store on return. For signal-driven graceful
// shutdown use NewSweepServer directly (as cmd/sweepd does).
func ServeSweep(addr string, opts ServeOptions) error {
	s, err := serve.New(opts)
	if err != nil {
		return err
	}
	defer s.Close()
	return s.ListenAndServe(addr)
}

// ProxyOptions configures the cluster routing proxy (writer URL, read
// replicas, health-probe interval, response-cache bound).
type ProxyOptions = cluster.Options

// SweepProxy is the cluster front door: it routes /v1/scenario by
// scenario-ID hash over a consistent ring of read replicas (falling
// through to the writer on miss), fans /v1/sweep out scenario by
// scenario and merges the stream back in grid order byte-identical to
// a single sweepd, health-checks replicas with eject/readmit, and
// answers conditional requests from an ETag-keyed response cache.
// cmd/sweep-proxy is the packaged daemon.
type SweepProxy = cluster.Proxy

// NewSweepProxy builds the routing proxy without binding a socket.
func NewSweepProxy(opts ProxyOptions) (*SweepProxy, error) {
	return cluster.NewProxy(opts)
}

// ReplicatorOptions configures a replica's segment-shipping pull loop.
type ReplicatorOptions = cluster.ReplicatorOptions

// SweepReplicator keeps one replica's sweep store converging on a
// writer sweepd's bytes by shipping whole segments off its
// /v1/segments feed. cmd/sweepd -follow runs one next to a store-only
// serve layer.
type SweepReplicator = cluster.Replicator

// NewSweepReplicator builds a replicator over an open store; Start
// launches the pull loop.
func NewSweepReplicator(opts ReplicatorOptions) (*SweepReplicator, error) {
	return cluster.NewReplicator(opts)
}

// UseDiskCache persists the shared result cache to dir: campaigns
// completed by sweeps or experiment drivers — in this process or any
// earlier one pointed at the same directory — are served from disk
// instead of re-simulated. Records pack into sharded append-only
// segments; a directory written by the older one-file-per-record layout
// migrates in place on first open. Compact mode stores summary-only
// records; drivers that derive quantiles from raw samples detect a
// compact hit and re-simulate instead of reading zeros.
func UseDiskCache(dir string, compact bool) error {
	return experiments.UseDiskCache(dir, compact)
}

// SweepStoreStats reports what a CompactSweepStore pass did.
type SweepStoreStats = store.CompactStats

// CompactSweepStore rewrites the live records of an on-disk sweep cache
// into fresh segments, dropping superseded entries, crash garbage and
// corrupt records. Compaction is an explicit maintenance pass (also
// available as cmd/sweep -compact-store); the store never compacts in
// the background. It requires exclusive ownership of the directory and
// fails while any other store has it open — a sweep, sweepd or sixgsim
// process, or this one via UseDiskCache.
func CompactSweepStore(dir string) (SweepStoreStats, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return SweepStoreStats{}, err
	}
	defer st.Close()
	return st.Compact()
}

// CacheStoreErrors reports how many disk-cache writes have failed since
// UseDiskCache. Persistence is best-effort — a full disk never fails a
// run — so callers that promised durability should check this on exit
// and warn.
func CacheStoreErrors() int64 {
	return sweep.Shared.StoreErrors()
}

// Artifact is a reproduced paper artefact (table or figure) with its
// paper-vs-measured comparison rows.
type Artifact = experiments.Artifact

// Experiment is a registered artefact driver.
type Experiment = experiments.Entry

// Experiments returns all registered paper artefacts in registration
// order (figures first, then analysis and recommendations).
func Experiments() []Experiment { return experiments.All() }

// RunExperiment regenerates one artefact by id (e.g. "fig2", "table1").
func RunExperiment(id string, seed uint64) (Artifact, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return Artifact{}, fmt.Errorf("sixgedge: unknown experiment %q (have %v)",
			id, experiments.IDs())
	}
	return e.Run(seed)
}

// PeeringReport scores the Section V-A local-peering recommendation.
type PeeringReport = recommend.PeeringReport

// EvaluatePeering compares the transit detour with a locally peered path.
func EvaluatePeering() (PeeringReport, error) { return recommend.EvaluatePeering() }

// UPFReport scores the Section V-B UPF-integration recommendation.
type UPFReport = recommend.UPFReport

// EvaluateUPF compares central, edge, SmartNIC-edge and 6G UPF anchoring.
func EvaluateUPF(seed uint64) (UPFReport, error) { return recommend.EvaluateUPF(seed) }

// CPFReport scores the Section V-C control-plane recommendation.
type CPFReport = recommend.CPFReport

// EvaluateCPF compares the four control-plane architectures.
func EvaluateCPF(seed uint64) (CPFReport, error) { return recommend.EvaluateCPF(seed) }

// GameConfig parameterizes an AR game session (Section IV-A use case).
type GameConfig = argame.Config

// GameReport summarizes a session's frame QoE.
type GameReport = argame.Report

// GameDeployments lists the infrastructure ladders a session can run on.
var GameDeployments = argame.Deployments

// PlayARGame simulates one AR dodgeball session.
func PlayARGame(cfg GameConfig) (GameReport, error) { return argame.Run(cfg) }
