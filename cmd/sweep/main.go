// Command sweep explores the scenario space: it expands a grid of
// campaign axes, runs every scenario on a worker pool, prints the
// per-variant aggregate table plus recommendation deltas, and exports
// one JSONL record per scenario. Output is deterministic at any worker
// count.
//
// Usage:
//
//	sweep                                   # the paper's baseline, one seed
//	sweep -seeds 1,2,3 -edge-upf both       # 3 replications x UPF placement
//	sweep -reps 4 -base-seed 42 -peering both -edge-upf both -workers 8
//	sweep -profiles 5G-public,6G-target -out grid.jsonl
//	sweep -cells "B2,E2;A3,C4" -nodes 3,5   # probe-set and fleet axes
//	sweep -wired-rounds 3,5,10              # wired-baseline-depth axis
//	sweep -slicing none,latency,resilience  # probe placement via slicing strategies
//	sweep -ar-deployments none,5G-edge-upf  # AR-session campaigns per deployment
//	sweep -reps 4 -cache-dir .sweepcache    # persist results; re-runs resume warm
//	sweep -reps 4 -cache-dir .sweepcache -compact   # summary-only records on disk
//	sweep -cache-dir .sweepcache -compact-store     # rewrite live records, drop dead bytes
//	curl -sN -H 'Accept: application/x-sweep-tlv' ... | sweep -decode-tlv -
//	                                                # binary sweep stream -> canonical JSONL
//	cat proxy.jsonl sweepd.jsonl | sweep -decode-trace -
//	                                                # exported spans -> per-hop latency tables
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	sixgedge "repro"
	"repro/internal/argame"
	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/ran"
	"repro/internal/slicing"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
	"repro/internal/sweep/tlv"
)

func main() {
	var (
		seeds        = flag.String("seeds", "", "comma-separated explicit seeds (overrides -reps/-base-seed)")
		reps         = flag.Int("reps", 1, "replications derived from -base-seed when -seeds is empty")
		baseSeed     = flag.Uint64("base-seed", 42, "root seed for derived replications")
		profiles     = flag.String("profiles", "", "comma-separated profile names (default 5G-public); known: "+profileNames())
		peering      = flag.String("peering", "off", "local-peering axis: off, on or both")
		edgeUPF      = flag.String("edge-upf", "off", "edge-UPF axis: off, on or both")
		nodes        = flag.String("nodes", "", "comma-separated mobile-node counts (default 3)")
		cells        = flag.String("cells", "", "semicolon-separated target-cell sets, cells comma-separated")
		wiredRounds  = flag.String("wired-rounds", "", "comma-separated wired-baseline round counts (default 5)")
		slicingAxis  = flag.String("slicing", "", "comma-separated probe-placement strategies (none, "+strategyNames()+"); non-none strategies place the probes via slicing.Place")
		arDeploys    = flag.String("ar-deployments", "", "comma-separated AR-session deployments (none, "+deployNames()+"); non-none deployments run the campaign in AR mode")
		workers      = flag.Int("workers", 0, "concurrent scenarios (0 = GOMAXPROCS)")
		out          = flag.String("out", "", "JSONL output file (\"-\" for stdout, empty to skip)")
		deltas       = flag.Bool("deltas", false, "print per-cell recommendation deltas")
		cacheDir     = flag.String("cache-dir", "", "persist the result cache to this directory; re-runs over completed scenarios resume warm")
		compact      = flag.Bool("compact", false, "with -cache-dir: store summary-only records (per-cell moments, no raw samples)")
		compactStore = flag.Bool("compact-store", false, "with -cache-dir: compact the on-disk store (drop superseded and corrupt entries, rewrite live records into fresh segments) and exit")
		decodeTLV    = flag.String("decode-tlv", "", "decode a binary sweep stream ("+tlv.MediaType+") from this file (\"-\" for stdin) to JSONL on stdout and exit")
		decodeTrace  = flag.String("decode-trace", "", "render JSONL span exports (sweepd/sweep-proxy -trace-out) from this file (\"-\" for stdin) as per-trace hop tables and exit")
		version      = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("sweep", buildinfo.Version())
		return
	}

	// Reject invalid flag combinations up front, before any grid
	// building or store opening: a silently ignored -compact or
	// -compact-store would leave the user believing the store was
	// compacted (or its records slimmed) when nothing happened, and a
	// negative -workers would silently run at GOMAXPROCS.
	if err := validateFlags(*cacheDir, *compact, *compactStore, *workers, *reps); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		fmt.Fprintln(os.Stderr, "run with -h for usage")
		os.Exit(2)
	}

	if *decodeTLV != "" {
		if err := decodeTLVStream(*decodeTLV, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	if *decodeTrace != "" {
		if err := decodeTraceFile(*decodeTrace, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	if *compactStore {
		st, err := store.Open(*cacheDir, store.Options{Compact: *compact})
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		stats, err := st.Compact()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("compacted %s: %d live records into %d segments (%d before), %d -> %d bytes",
			st.Dir(), stats.Live, stats.SegmentsAfter, stats.SegmentsBefore,
			stats.BytesBefore, stats.BytesAfter)
		if stats.Dropped > 0 {
			fmt.Printf("; %d corrupt entries dropped", stats.Dropped)
		}
		fmt.Println()
		return
	}

	grid, err := buildGrid(*seeds, *reps, *baseSeed, *profiles, *peering, *edgeUPF, *nodes,
		*cells, *wiredRounds, *slicingAxis, *arDeploys)
	if err != nil {
		fatal(err)
	}
	cache := sweep.Shared
	var st *store.Store
	if *cacheDir != "" {
		st, err = store.Open(*cacheDir, store.Options{Compact: *compact})
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		cache = sweep.NewPersistentCache(st)
	}
	res, err := sixgedge.RunSweep(grid, sixgedge.SweepOptions{Workers: *workers, Cache: cache})
	if err != nil {
		fatal(err)
	}

	// With -out -, stdout carries the JSONL stream; the human-readable
	// report moves to stderr so the stream stays machine-parseable.
	report := os.Stdout
	if *out == "-" {
		report = os.Stderr
	}
	fmt.Fprintf(report, "sweep: %d scenarios, %d variants, %d cache hits / %d misses\n",
		len(res.Scenarios), len(res.Variants), res.CacheHits, res.CacheMisses)
	if st != nil {
		mode := "full"
		if st.CompactMode() {
			mode = "compact"
		}
		fmt.Fprintf(report, "cache-dir: %s holds %d records (%s)", st.Dir(), st.Len(), mode)
		if n := cache.StoreErrors(); n > 0 {
			fmt.Fprintf(report, "; %d persist errors (cache degraded, results unaffected)", n)
		}
		fmt.Fprintln(report)
	}
	fmt.Fprintln(report)
	// The mode column sizes to its longest value ("slicing=…+ar=…"
	// composites overflow any fixed width).
	modeOf := func(cfg sixgedge.CampaignConfig) string {
		var modes []string
		if cfg.Slicing != nil {
			modes = append(modes, "slicing="+cfg.Slicing.Axis())
		}
		if cfg.ARGame != nil {
			modes = append(modes, "ar="+cfg.ARGame.Deployment.String())
		}
		if len(modes) == 0 {
			return "-"
		}
		return strings.Join(modes, "+")
	}
	modeW := len("mode")
	for _, v := range res.Variants {
		if l := len(modeOf(v.Config)); l > modeW {
			modeW = l
		}
	}
	fmt.Fprintf(report, "%-16s %-14s %-7s %-5s %5s %5s %5s %-*s %9s %9s %7s\n",
		"variant", "profile", "peering", "edge", "nodes", "wired", "reps", modeW, "mode",
		"mobile-ms", "wired-ms", "factor")
	for _, v := range res.Variants {
		fmt.Fprintf(report, "%-16s %-14s %-7t %-5t %5d %5d %5d %-*s %9.2f %9.2f %7.2f\n",
			v.ID, v.Config.Profile.Name, v.Config.LocalPeering, v.Config.EdgeUPF,
			v.Config.MobileNodes, v.Config.WiredRounds, len(v.Seeds), modeW, modeOf(v.Config),
			v.Mobile.Mean(), v.Wired.Mean(), v.Factor)
	}

	if ds := res.Deltas(); len(ds) > 0 {
		fmt.Fprintf(report, "\n%-14s %-16s %-16s %12s %8s\n",
			"axis", "base", "alt", "reduction-ms", "pct")
		for _, d := range ds {
			fmt.Fprintf(report, "%-14s %-16s %-16s %12.2f %7.1f%%\n",
				d.Axis, d.Base, d.Alt, d.MeanReductionMs, d.MeanReductionPct)
			if *deltas {
				for _, c := range d.Cells {
					fmt.Fprintf(report, "    %-4s %8.2f -> %8.2f  (%+.2f ms, %+.1f%%)\n",
						c.Cell, c.BaseMeanMs, c.AltMeanMs, -c.ReductionMs, -c.ReductionPct)
				}
			}
		}
	}

	if *out != "" {
		w := os.Stdout
		if *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := res.WriteJSONL(w); err != nil {
			fatal(err)
		}
		if *out != "-" {
			fmt.Printf("\nwrote %d JSONL records to %s\n", len(res.Scenarios), *out)
		}
	}
}

// validateFlags rejects flag combinations that ask for on-disk cache
// behaviour without a cache directory to apply it to, and nonsensical
// numeric values that would otherwise be silently reinterpreted.
func validateFlags(cacheDir string, compact, compactStore bool, workers, reps int) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", workers)
	}
	if reps < 1 {
		return fmt.Errorf("-reps must be >= 1, got %d", reps)
	}
	if compact && cacheDir == "" {
		return fmt.Errorf("-compact requires -cache-dir (record mode is a property of the on-disk store)")
	}
	if compactStore && cacheDir == "" {
		return fmt.Errorf("-compact-store requires -cache-dir (there is no store to compact)")
	}
	return nil
}

// decodeTLVStream converts a binary sweep stream (the
// application/x-sweep-tlv response body, or a concatenation of v3
// record frames) back to the canonical JSONL, one record per line —
// the bridge that lets CI cmp-compare a negotiated binary stream
// against the JSONL the same grid produces for plain clients.
func decodeTLVStream(path string, w io.Writer) error {
	in := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	sr := tlv.NewStreamReader(in)
	out := bufio.NewWriter(w)
	enc := json.NewEncoder(out)
	for {
		rec, err := sr.NextRecord()
		if err == io.EOF {
			return out.Flush()
		}
		if err != nil {
			return fmt.Errorf("decode tlv stream: %w", err)
		}
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
}

// decodeTraceFile renders one or more concatenated -trace-out JSONL
// exports as per-trace hop tables: concatenating each tier's file
// (proxy + backends) joins a propagated request into one table, hop by
// hop, with its per-stage breakdown.
func decodeTraceFile(path string, w io.Writer) error {
	in := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	recs, err := obs.ReadSpans(in)
	if err != nil {
		return fmt.Errorf("decode trace: %w", err)
	}
	return obs.WriteTraceTable(w, recs)
}

func buildGrid(seeds string, reps int, baseSeed uint64, profiles, peering, edgeUPF,
	nodes, cells, wiredRounds, slicingAxis, arDeploys string) (sweep.Grid, error) {
	// The named axes and every value bound are checked once, by
	// GridSpec.Grid, the same resolver /v1/sweep uses.
	spec := sweep.GridSpec{
		BaseSeed:      baseSeed,
		Replications:  reps,
		Profiles:      splitList(profiles),
		Slicing:       splitList(slicingAxis),
		ARDeployments: splitList(arDeploys),
	}
	for _, s := range splitList(seeds) {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return sweep.Grid{}, fmt.Errorf("bad seed %q: %v", s, err)
		}
		spec.Seeds = append(spec.Seeds, v)
	}
	var err error
	if spec.LocalPeering, err = boolAxis("peering", peering); err != nil {
		return sweep.Grid{}, err
	}
	if spec.EdgeUPF, err = boolAxis("edge-upf", edgeUPF); err != nil {
		return sweep.Grid{}, err
	}
	if spec.MobileNodes, err = intList("node count", nodes); err != nil {
		return sweep.Grid{}, err
	}
	if cells != "" {
		for _, set := range strings.Split(cells, ";") {
			var cs []string
			for _, c := range strings.Split(set, ",") {
				cs = append(cs, strings.TrimSpace(c))
			}
			spec.TargetCells = append(spec.TargetCells, cs)
		}
	}
	if spec.WiredRounds, err = intList("wired-rounds count", wiredRounds); err != nil {
		return sweep.Grid{}, err
	}
	return spec.Grid()
}

// splitList splits a comma-separated flag value into its trimmed
// elements; an empty value is no elements.
func splitList(v string) []string {
	if v == "" {
		return nil
	}
	parts := strings.Split(v, ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}

func intList(what, v string) ([]int, error) {
	var out []int
	for _, s := range splitList(v) {
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %v", what, s, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func boolAxis(name, v string) ([]bool, error) {
	switch v {
	case "off":
		return nil, nil
	case "on":
		return []bool{true}, nil
	case "both":
		return []bool{false, true}, nil
	}
	return nil, fmt.Errorf("-%s must be off, on or both (got %q)", name, v)
}

func profileNames() string {
	names := make([]string, len(ran.Profiles))
	for i, p := range ran.Profiles {
		names[i] = p.Name
	}
	return strings.Join(names, ",")
}

func strategyNames() string {
	names := make([]string, len(slicing.Strategies))
	for i, s := range slicing.Strategies {
		names[i] = s.String()
	}
	return strings.Join(names, ",")
}

func deployNames() string {
	names := make([]string, len(argame.Deployments))
	for i, d := range argame.Deployments {
		names[i] = d.String()
	}
	return strings.Join(names, ",")
}

func fatal(err error) {
	// Errors from the sweep package carry their own "sweep: " prefix.
	fmt.Fprintln(os.Stderr, "sweep:", strings.TrimPrefix(err.Error(), "sweep: "))
	os.Exit(1)
}
