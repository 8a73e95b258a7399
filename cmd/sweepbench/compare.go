package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchFile is the part of BENCHMARK.json the comparison reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loggedRun is one untraced run's result read back from a log.
type loggedRun struct {
	workload string
	values   map[string]float64
}

// readLogs collects the untraced runs in the given logs, in order. A
// run is the "# sweepbench workload=... trace=0" header line followed,
// later, by its JSON result line.
func readLogs(paths []string) ([]loggedRun, error) {
	var out []loggedRun
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		workload, traced := "", false
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "# sweepbench ") {
				workload, traced = "", false
				for _, field := range strings.Fields(line)[2:] {
					k, v, _ := strings.Cut(field, "=")
					switch k {
					case "workload":
						workload = v
					case "trace":
						traced = v == "1"
					}
				}
				continue
			}
			if workload == "" || traced || !strings.HasPrefix(line, "{") {
				continue
			}
			var rep report
			if err := json.Unmarshal([]byte(line), &rep); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if !rep.Correct || rep.Failed > 0 {
				f.Close()
				return nil, fmt.Errorf("%s: a %s run is incorrect or has failed ops", path, workload)
			}
			r := loggedRun{workload: workload, values: map[string]float64{}}
			for k, m := range rep.Metrics {
				r.values[k] = m.Value
			}
			out = append(out, r)
			workload = ""
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// verdict applies the no-regression and gain rules to one (metric,
// workload) pair. a are the parent's runs and b the change's, in run
// order; pairs are (a[i], b[i]).
func verdict(a, b []float64, lowerBetter bool, bound float64) (string, float64, float64) {
	medA, medB := median(a), median(b)
	iqrA := quantile(a, 0.75) - quantile(a, 0.25)
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	winShare := ratio(float64(wins), float64(pairs))
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	// worse is the change's median shift in the bad direction, as a
	// share of the parent's median.
	worse := ratio(medB-medA, medA)
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case allBetter && medA != medB:
		return "better", worse, winShare
	case allWorse && worse > bound:
		return "WORSE", worse, winShare
	case ratio(iqrA, medA) > bound:
		return "unresolved", worse, winShare
	case worse > bound:
		return "WORSE", worse, winShare
	case winShare >= 0.9 && better(medB, medA) && abs(medB-medA) > iqrA:
		return "better", worse, winShare
	}
	return "same", worse, winShare
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// runCompare implements -compare A... -- B...: one row per workload,
// one cell per end-to-end metric. It exits 1 when any cell is WORSE.
func runCompare(benchPath string, args []string, stdout, stderr io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "sweepbench: usage: -compare A.log... -- B.log...")
		return exitUsage
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "sweepbench:", err)
		return exitUsage
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(stderr, "sweepbench: %s: %v\n", benchPath, err)
		return exitUsage
	}
	sideA, err := readLogs(args[:sep])
	if err == nil {
		var sideB []loggedRun
		sideB, err = readLogs(args[sep+1:])
		if err == nil {
			return writeComparison(stdout, bf, sideA, sideB)
		}
	}
	fmt.Fprintln(stderr, "sweepbench:", err)
	return exitFail
}

func writeComparison(stdout io.Writer, bf benchFile, sideA, sideB []loggedRun) int {
	byWorkload := func(runs []loggedRun) map[string][]loggedRun {
		m := map[string][]loggedRun{}
		for _, r := range runs {
			m[r.workload] = append(m[r.workload], r)
		}
		return m
	}
	a, b := byWorkload(sideA), byWorkload(sideB)
	var names []string
	for w := range a {
		if len(b[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "workload\truns")
	for _, m := range bf.EndToEnd {
		fmt.Fprintf(tw, "\t%s", m.Name)
	}
	fmt.Fprintln(tw)
	code := exitOK
	for _, w := range names {
		fmt.Fprintf(tw, "%s\t%d/%d", w, len(a[w]), len(b[w]))
		for _, m := range bf.EndToEnd {
			va, vb := values(a[w], m.Name), values(b[w], m.Name)
			v, worse, win := verdict(va, vb, m.Better == "lower", m.Bound)
			if v == "WORSE" {
				code = exitFail
			}
			fmt.Fprintf(tw, "\t%s %+.1f%% win %.0f%%", v, 100*worse, 100*win)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintln(tw, "cells: verdict, median change in the worse direction, share of A/B pairs the change won")
	if err := tw.Flush(); err != nil {
		return exitFail
	}
	return code
}

func values(runs []loggedRun, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.values[name])
	}
	return out
}
