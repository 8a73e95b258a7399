// Command benchgate turns `go test -bench` output on stdin into one
// line of JSON, {"commit","cpu","benchmarks":[{"pkg","name",
// "iterations","metrics"}]}, and applies performance gates to it. name
// drops the -GOMAXPROCS suffix all names share; metrics maps every unit
// the line printed to its value, and nothing is derived. A FAIL or
// --- FAIL line, or input without benchmarks, is an error. Each
// repeatable gate prints one line to stderr; any failed gate exits 1:
//
//	-max 'NAME:UNIT<=LIMIT'         a NAME ending in * matches a name prefix
//	-min-ratio 'A+B/C+D:UNIT>=MIN'  each term matches one benchmark; MIN 0 only reports
//
// A gate that matches nothing, or a benchmark that lacks the unit, fails.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

type benchmark struct {
	Pkg        string             `json:"pkg"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type record struct {
	Commit     string      `json:"commit"`
	CPU        string      `json:"cpu"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	commit := fs.String("commit", "", "commit the benchmarks ran at")
	var gates []gate
	addGate := func(op string) func(string) error {
		return func(spec string) error {
			g, err := parseGate(spec, op)
			gates = append(gates, g)
			return err
		}
	}
	fs.Func("max", "gate 'NAME:UNIT<=LIMIT' (repeatable)", addGate("<="))
	fs.Func("min-ratio", "gate 'A+B/C+D:UNIT>=MIN' (repeatable)", addGate(">="))
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	rec, err := parse(stdin)
	if err != nil {
		return err
	}
	rec.Commit = *commit
	if err := json.NewEncoder(stdout).Encode(rec); err != nil {
		return err
	}
	failed := 0
	for _, g := range gates {
		msg, ok := g.check(rec.Benchmarks)
		status := "ok  "
		if !ok {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(stderr, "%s %s: %s\n", status, g.spec, msg)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d gates failed", failed, len(gates))
	}
	return nil
}

func parse(r io.Reader) (*record, error) {
	rec := &record{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "FAIL") || strings.Contains(line, "--- FAIL"):
			return nil, fmt.Errorf("benchmark run failed: %s", line)
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: ") && rec.CPU == "":
			rec.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			f := strings.Fields(line)
			if len(f) == 1 {
				continue // a name printed ahead of its result line
			}
			b := benchmark{Pkg: pkg, Name: f[0], Metrics: map[string]float64{}}
			var err error
			b.Iterations, err = strconv.ParseInt(f[1], 10, 64)
			for i := 2; err == nil && i+1 < len(f); i += 2 {
				b.Metrics[f[i+1]], err = strconv.ParseFloat(f[i], 64)
			}
			if err != nil || len(f)%2 != 0 {
				return nil, fmt.Errorf("malformed benchmark line: %s", line)
			}
			rec.Benchmarks = append(rec.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rec.Benchmarks) == 0 {
		return nil, errors.New("no benchmark results in the input")
	}
	// go test suffixes every name with -GOMAXPROCS, or none at 1 (never
	// -1), so only a -N common to all names is the suffix.
	suffix := procsSuffix.FindString(rec.Benchmarks[0].Name)
	for _, b := range rec.Benchmarks {
		if suffix == "-1" || !strings.HasSuffix(b.Name, suffix) {
			suffix = ""
		}
	}
	for i := range rec.Benchmarks {
		rec.Benchmarks[i].Name = strings.TrimSuffix(rec.Benchmarks[i].Name, suffix)
	}
	return rec, nil
}

// gate is one -max (den nil) or -min-ratio check.
type gate struct {
	spec, unit string
	num, den   []string
	limit      float64
}

var (
	procsSuffix = regexp.MustCompile(`-\d+$`)
	gateSpec    = regexp.MustCompile(`^(.+):([^:<>=]+)(<=|>=)(-?\d+(?:\.\d+)?)$`)
)

func parseGate(spec, op string) (gate, error) {
	m := gateSpec.FindStringSubmatch(spec)
	if m == nil || m[3] != op {
		return gate{}, fmt.Errorf("malformed gate %q: want NAME:UNIT<=LIMIT or A+B/C+D:UNIT>=MIN", spec)
	}
	g := gate{spec: spec, num: []string{m[1]}, unit: m[2]}
	g.limit, _ = strconv.ParseFloat(m[4], 64) // gateSpec admits only numbers
	if op == ">=" {
		num, den, _ := strings.Cut(m[1], "/")
		g.num, g.den = strings.Split(num, "+"), strings.Split(den, "+")
	}
	for _, t := range append(g.num, g.den...) {
		if t == "" {
			return gate{}, fmt.Errorf("malformed gate %q: empty benchmark name", spec)
		}
	}
	return g, nil
}

// match returns every benchmark name matches; each must report the unit.
func (g gate) match(bs []benchmark, name string) ([]benchmark, error) {
	prefix, wild := strings.CutSuffix(name, "*")
	var hits []benchmark
	for _, b := range bs {
		if b.Name == name || (wild && strings.HasPrefix(b.Name, prefix)) {
			if _, ok := b.Metrics[g.unit]; !ok {
				return nil, fmt.Errorf("%s reports no %s", b.Name, g.unit)
			}
			hits = append(hits, b)
		}
	}
	if len(hits) == 0 {
		return nil, fmt.Errorf("no benchmark matches %s", name)
	}
	return hits, nil
}

// check returns the gate's result line and whether it passed. A failed
// -max gate names each offender with its value.
func (g gate) check(bs []benchmark) (string, bool) {
	if g.den == nil {
		hits, err := g.match(bs, g.num[0])
		if err != nil {
			return err.Error(), false
		}
		var all, over []string
		for _, b := range hits {
			v := fmt.Sprintf("%s %s", b.Name, num(b.Metrics[g.unit]))
			all = append(all, v)
			if b.Metrics[g.unit] > g.limit {
				over = append(over, v)
			}
		}
		if over != nil {
			return strings.Join(over, ", "), false
		}
		return strings.Join(all, ", "), true
	}
	var sums [2]float64
	for i, terms := range [][]string{g.num, g.den} {
		for _, t := range terms {
			hits, err := g.match(bs, t)
			if err == nil && len(hits) > 1 {
				err = fmt.Errorf("%s matches %d benchmarks, want one", t, len(hits))
			}
			if err != nil {
				return err.Error(), false
			}
			sums[i] += hits[0].Metrics[g.unit]
		}
	}
	r := sums[0] / sums[1]
	return fmt.Sprintf("%.2fx (%s / %s)", r, num(sums[0]), num(sums[1])), r >= g.limit
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
