package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/campaign"
	"repro/internal/des"
	"repro/internal/sweep"
	"repro/internal/sweep/cluster"
	"repro/internal/sweep/serve"
	"repro/internal/sweep/tlv"
)

// mismatchError is an output-oracle failure; it always names the
// scenario whose bytes were wrong.
type mismatchError struct {
	id     string
	detail string
}

func (e *mismatchError) Error() string {
	return fmt.Sprintf("scenario %s: %s", e.id, e.detail)
}

// verifier checks every response body against the bytes the scenario
// or grid returned before. References from set-up are read-only during
// the timed phase; scenarios first seen in it (cold and fresh misses)
// and each grid's first TLV stream are recorded under mu.
type verifier struct {
	refs   map[string][]byte // set-up references, by scenario ID
	expect map[*grid][]byte  // JSONL stream bytes per grid, from refs

	mu      sync.Mutex
	seen    map[string][]byte // first body of scenarios without a reference
	tlvSeen map[*grid][]byte  // first TLV body per grid, decoded and checked
	first   error             // first mismatch
}

func newVerifier(p *plan, refs map[string][]byte) *verifier {
	v := &verifier{refs: refs, expect: map[*grid][]byte{},
		seen: map[string][]byte{}, tlvSeen: map[*grid][]byte{}}
	for _, g := range p.grids {
		var b bytes.Buffer
		for _, sc := range g.scs {
			b.Write(refs[sc.id])
		}
		v.expect[g] = b.Bytes()
	}
	return v
}

// check is the generator's per-response oracle; it returns the number
// of records the body carried.
func (v *verifier) check(o *op, body []byte) (int, error) {
	var err error
	n := 1
	switch {
	case o.kind == opScenario:
		err = v.checkScenario(o.sc, body)
	case o.tlv:
		n = len(o.grid.scs)
		err = v.checkTLV(o.grid, body)
	default:
		n = len(o.grid.scs)
		if !bytes.Equal(body, v.expect[o.grid]) {
			err = v.firstLineMismatch(o.grid, bytes.SplitAfter(body, []byte("\n")), "JSONL stream")
		}
	}
	if err != nil {
		v.mu.Lock()
		if v.first == nil {
			v.first = err
		}
		v.mu.Unlock()
	}
	return n, err
}

func (v *verifier) checkScenario(sc *scenario, body []byte) error {
	if ref, ok := v.refs[sc.id]; ok {
		if !bytes.Equal(body, ref) {
			return &mismatchError{sc.id, "served bytes differ from the bytes it served before"}
		}
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if prev, ok := v.seen[sc.id]; ok {
		if !bytes.Equal(body, prev) {
			return &mismatchError{sc.id, "served bytes differ from the bytes it served before"}
		}
		return nil
	}
	v.seen[sc.id] = bytes.Clone(body)
	return nil
}

// checkTLV requires every TLV stream of a grid to repeat the grid's
// first one byte for byte, and that first one to decode to exactly the
// grid's JSONL bytes.
func (v *verifier) checkTLV(g *grid, body []byte) error {
	v.mu.Lock()
	prev, ok := v.tlvSeen[g]
	v.mu.Unlock()
	if ok && bytes.Equal(body, prev) {
		return nil
	}
	lines, err := decodeTLV(body)
	if err != nil {
		id := g.scs[0].id
		if len(lines) < len(g.scs) {
			id = g.scs[len(lines)].id
		}
		return &mismatchError{id, fmt.Sprintf("TLV stream does not decode: %v", err)}
	}
	if err := v.firstLineMismatch(g, lines, "TLV stream"); err != nil {
		return err
	}
	if ok {
		// Decodes to the right records, yet differs from the grid's
		// first stream: the framing changed between responses.
		return &mismatchError{g.scs[0].id, "TLV stream bytes differ from the grid's first TLV stream"}
	}
	v.mu.Lock()
	v.tlvSeen[g] = bytes.Clone(body)
	v.mu.Unlock()
	return nil
}

// firstLineMismatch compares a stream's records, as JSONL lines, with
// the grid's references and names the first scenario that differs.
func (v *verifier) firstLineMismatch(g *grid, lines [][]byte, what string) error {
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	for i, sc := range g.scs {
		if i >= len(lines) {
			return &mismatchError{sc.id, fmt.Sprintf("%s ended after %d of %d records", what, i, len(g.scs))}
		}
		if !bytes.Equal(lines[i], v.refs[sc.id]) {
			return &mismatchError{sc.id, fmt.Sprintf("%s record %d differs from the scenario's bytes", what, i)}
		}
	}
	if len(lines) > len(g.scs) {
		return &mismatchError{g.scs[len(g.scs)-1].id, fmt.Sprintf("%s carries %d records for a %d-scenario grid", what, len(lines), len(g.scs))}
	}
	return nil
}

// decodeTLV decodes a binary stream into the JSONL lines the same
// records encode to; on error it returns the lines decoded so far.
func decodeTLV(body []byte) ([][]byte, error) {
	sr := tlv.NewStreamReader(bytes.NewReader(body))
	var lines [][]byte
	for {
		rec, err := sr.NextRecord()
		if errors.Is(err, io.EOF) {
			return lines, nil
		}
		if err != nil {
			return lines, err
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return lines, err
		}
		lines = append(lines, append(line, '\n'))
	}
}

// served returns the bytes a scenario was served with, from set-up or
// from the timed phase.
func (v *verifier) served(id string) ([]byte, bool) {
	if b, ok := v.refs[id]; ok {
		return b, true
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	b, ok := v.seen[id]
	return b, ok
}

// recomputeIDs picks the scenarios the in-process oracle re-simulates:
// every 8th cold-miss op, then a seeded draw from everything served,
// up to want IDs (or all of them when fewer were served).
func recomputeIDs(p *plan, v *verifier, want int) []*scenario {
	var out []*scenario
	picked := map[string]bool{}
	add := func(sc *scenario) {
		if _, ok := v.served(sc.id); ok && !picked[sc.id] {
			picked[sc.id] = true
			out = append(out, sc)
		}
	}
	if p.w.name == "cold-miss" {
		for i := 0; i < len(p.ops); i += 8 {
			add(p.ops[i].sc)
		}
	}
	ids := make([]string, 0, len(p.scenarios))
	for id := range p.scenarios {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	r := rand.New(rand.NewPCG(p.seed, des.DeriveSeed(p.seed, "recompute")))
	for _, i := range r.Perm(len(ids)) {
		if len(out) >= want {
			break
		}
		add(p.scenarios[ids[i]])
	}
	return out
}

// recompute re-simulates scenarios in process with campaign.Run and
// sweep.RecordOf, on workers goroutines, and requires each record to
// equal the served bytes.
func recompute(scs []*scenario, v *verifier, workers int) error {
	errs := make([]error, len(scs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(scs); i += workers {
				errs[i] = recomputeOne(scs[i], v)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func recomputeOne(sc *scenario, v *verifier) error {
	res, err := campaign.Run(sc.cfg)
	if err != nil {
		return &mismatchError{sc.id, fmt.Sprintf("recompute: %v", err)}
	}
	line, err := json.Marshal(sweep.RecordOf(sweep.ScenarioRun{
		Scenario: sweep.Scenario{ID: sc.id, Variant: sc.variant, Config: sc.cfg}, Result: res}))
	if err != nil {
		return &mismatchError{sc.id, fmt.Sprintf("recompute: %v", err)}
	}
	got, _ := v.served(sc.id)
	if !bytes.Equal(append(line, '\n'), got) {
		return &mismatchError{sc.id, "served bytes differ from an in-process campaign.Run + RecordOf"}
	}
	return nil
}

// scrape is one server's /metricsz samples, keyed by series
// ("name{labels}"), plus the request counts its /statsz reports.
type scrape struct {
	series           map[string]float64
	scenarioRequests int64
	sweepRequests    int64
	proxyTLVStreams  int64
	sweepdHits       int64
	sweepdMisses     int64
}

func (s scrape) get(key string) float64 { return s.series[key] }

func scrapeServer(ctx context.Context, client *http.Client, base string, proxy bool) (scrape, error) {
	s := scrape{series: map[string]float64{}}
	text, err := post(ctx, client, base+"/metricsz", nil)
	if err != nil {
		return s, err
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return s, fmt.Errorf("%s/metricsz: malformed line %q", base, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return s, fmt.Errorf("%s/metricsz: %w", base, err)
		}
		s.series[line[:i]] = v
	}
	raw, err := post(ctx, client, base+"/statsz", nil)
	if err != nil {
		return s, err
	}
	if proxy {
		var st cluster.ProxyStats
		if err := json.Unmarshal(raw, &st); err != nil {
			return s, err
		}
		s.scenarioRequests, s.sweepRequests, s.proxyTLVStreams = st.Scenario.Requests, st.Sweep.Requests, st.Sweep.TLVStreams
		return s, nil
	}
	var st serve.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		return s, err
	}
	s.scenarioRequests, s.sweepRequests = st.Scenario.Requests, st.Sweep.Requests
	s.sweepdHits, s.sweepdMisses = st.Cache.Hits, st.Cache.Misses
	return s, nil
}

// Series read from /metricsz.
const (
	mHits       = "sweepd_cache_hits_total"
	mMisses     = "sweepd_cache_misses_total"
	mTLVRecords = "sweepd_tlv_records_total"
	mScenarioEP = `sweepd_http_request_duration_us_count{endpoint="scenario"}`
	mTLVBatches = "sweepd_tlv_batches_total"
	mPuts       = `sweepd_store_op_duration_us_count{op="put"}`
	mPutUsSum   = `sweepd_store_op_duration_us_sum{op="put"}`
	mGets       = `sweepd_store_op_duration_us_count{op="get"}`
	mProxyScen  = `sweep_proxy_http_request_duration_us_count{endpoint="scenario"}`
	mProxyTLV   = "sweep_proxy_tlv_streams_total"
)

// snapshot scrapes every server of a stack: sweepds in node order,
// then the proxy.
type snapshot struct {
	nodes []scrape
	proxy *scrape
}

func takeSnapshot(ctx context.Context, client *http.Client, st *stack) (snapshot, error) {
	var snap snapshot
	for _, n := range st.nodes {
		s, err := scrapeServer(ctx, client, n.url, false)
		if err != nil {
			return snap, err
		}
		snap.nodes = append(snap.nodes, s)
	}
	if st.proxy != nil {
		s, err := scrapeServer(ctx, client, st.proxy.url, true)
		if err != nil {
			return snap, err
		}
		snap.proxy = &s
	}
	return snap, nil
}

// delta is after − before for one series summed over the sweepds.
func nodeDelta(before, after snapshot, key string) int64 {
	var d float64
	for i := range after.nodes {
		d += after.nodes[i].get(key) - before.nodes[i].get(key)
	}
	return int64(d)
}

// clientCounts are the timed phase's operations as the client counted
// them.
type clientCounts struct {
	clean              bool // every op completed and passed its byte check
	scenarios          int64
	streams            int64
	streamRecords      int64
	tlvStreams         int64
	tlvRecords         int64
	backendScenarioReq int64 // cluster: /v1/scenario hops the proxy's RoundTripper saw
}

func countClient(samples []sample) clientCounts {
	c := clientCounts{clean: true}
	for i := range samples {
		s := &samples[i]
		switch {
		case !s.ok:
			c.clean = false
		case s.op.kind == opScenario:
			c.scenarios++
		default:
			c.streams++
			c.streamRecords += int64(s.records)
			if s.op.tlv {
				c.tlvStreams++
				c.tlvRecords += int64(s.records)
			}
		}
	}
	return c
}

// conserve checks the counter-conservation oracles: the servers'
// /metricsz and /statsz deltas over the timed phase must equal what the
// client counted. The identities between server counters always hold;
// those against the client's counts need every op to have completed,
// since a request cut off at the drain deadline may or may not have
// been counted (and the run already reports it as failed).
func conserve(before, after snapshot, c clientCounts, cl bool) error {
	var errs []error
	expect := func(what string, got, want int64) {
		if got != want {
			errs = append(errs, fmt.Errorf("counter conservation: %s is %d, want %d", what, got, want))
		}
	}
	statsDelta := func(f func(scrape) int64) int64 {
		var d int64
		for i := range after.nodes {
			d += f(after.nodes[i]) - f(before.nodes[i])
		}
		return d
	}
	hits, misses := nodeDelta(before, after, mHits), nodeDelta(before, after, mMisses)
	expect("statsz cache hits vs metricsz", statsDelta(func(s scrape) int64 { return s.sweepdHits }), hits)
	expect("statsz cache misses vs metricsz", statsDelta(func(s scrape) int64 { return s.sweepdMisses }), misses)
	for i := range after.nodes {
		puts := int64(after.nodes[i].get(mPuts) - before.nodes[i].get(mPuts))
		miss := int64(after.nodes[i].get(mMisses) - before.nodes[i].get(mMisses))
		expect(fmt.Sprintf("sweepd %d store puts vs misses", i), puts, miss)
	}
	nodeScenario := statsDelta(func(s scrape) int64 { return s.scenarioRequests })
	expect("statsz scenario requests vs metricsz", nodeScenario, nodeDelta(before, after, mScenarioEP))
	if !c.clean {
		return errors.Join(errs...)
	}
	if !cl {
		expect("sweepd scenario requests vs client", nodeScenario, c.scenarios)
		expect("sweepd sweep requests vs client", statsDelta(func(s scrape) int64 { return s.sweepRequests }), c.streams)
		expect("sweepd hits + misses vs scenario 200s + stream records", hits+misses, c.scenarios+c.streamRecords)
		expect("sweepd TLV records vs TLV records received", nodeDelta(before, after, mTLVRecords), c.tlvRecords)
		return errors.Join(errs...)
	}
	pb, pa := before.proxy, after.proxy
	expect("proxy scenario requests vs client", pa.scenarioRequests-pb.scenarioRequests, c.scenarios)
	expect("proxy metricsz scenario requests vs client", int64(pa.get(mProxyScen)-pb.get(mProxyScen)), c.scenarios)
	expect("proxy sweep requests vs client", pa.sweepRequests-pb.sweepRequests, c.streams)
	expect("proxy TLV streams vs TLV streams received", pa.proxyTLVStreams-pb.proxyTLVStreams, c.tlvStreams)
	expect("proxy metricsz TLV streams vs statsz", int64(pa.get(mProxyTLV)-pb.get(mProxyTLV)), pa.proxyTLVStreams-pb.proxyTLVStreams)
	expect("backend requests seen by the proxy's RoundTripper vs writer + replica requests", c.backendScenarioReq, nodeScenario)
	expect("backend scenario requests vs reads + streamed records", nodeScenario, c.scenarios+c.streamRecords)
	expect("sweepd hits + misses vs sweepd scenario requests", hits+misses, nodeScenario)
	return errors.Join(errs...)
}
