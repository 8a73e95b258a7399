package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sweep/cluster"
	"repro/internal/sweep/serve"
)

// spanSink collects one tracer's JSONL span export in memory; it is
// read once the servers have stopped.
type spanSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *spanSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *spanSink) spans() ([]obs.SpanRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return obs.ReadSpans(bytes.NewReader(s.buf.Bytes()))
}

// runLog wraps campaign.Run as serve.Options.Runner: it times every
// simulation the server admits.
type runLog struct {
	mu   sync.Mutex
	durs []time.Duration
	// pings counts mobile plus wired pings per run.
	pings []int
}

func (l *runLog) run(cfg campaign.Config) (*campaign.Result, error) {
	t0 := time.Now()
	res, err := campaign.Run(cfg)
	d := time.Since(t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.durs = append(l.durs, d)
	if err == nil {
		l.pings = append(l.pings, res.TotalMeasurements+res.Wired.N())
	}
	return res, err
}

// snapshot returns copies of the run times and ping counts so far.
func (l *runLog) snapshot() ([]time.Duration, []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.durs...), append([]int(nil), l.pings...)
}

// node is one in-process sweepd on a loopback listener.
type node struct {
	name  string
	srv   *serve.Server
	url   string
	runs  *runLog
	sink  *spanSink // nil when untraced
	wg    sync.WaitGroup
	errMu sync.Mutex
	err   error
}

func startNode(name, dir string, opts serve.Options, lru int, traced bool) (*node, error) {
	n := &node{name: name, runs: &runLog{}}
	opts.CacheDir = dir
	opts.Runner = n.runs.run
	if traced {
		n.sink = &spanSink{}
		opts.Tracer = obs.NewTracer(obs.TracerOptions{Service: "sweepd", Writer: n.sink, SampleN: 1})
	}
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	srv.Cache().SetLimit(lru)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	n.srv, n.url = srv, "http://"+ln.Addr().String()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		if err := srv.Serve(ln); err != nil {
			n.errMu.Lock()
			n.err = err
			n.errMu.Unlock()
		}
	}()
	return n, nil
}

func (n *node) stop(ctx context.Context) error {
	err := n.srv.Shutdown(ctx)
	n.wg.Wait()
	n.errMu.Lock()
	defer n.errMu.Unlock()
	return errors.Join(err, n.err)
}

// proxyNode is the in-process sweep-proxy.
type proxyNode struct {
	p     *cluster.Proxy
	url   string
	sink  *spanSink
	hops  *hopTimer // times every backend request the proxy makes
	wg    sync.WaitGroup
	errMu sync.Mutex
	err   error
}

func startProxy(writer string, replicas []string, traced bool) (*proxyNode, error) {
	// The transport is the one sweep-proxy gets by default.
	pn := &proxyNode{hops: &hopTimer{next: http.DefaultTransport.(*http.Transport).Clone()}}
	// The response cache is off: the fixture fits in its default 4096
	// entries and would turn every read into a proxy-local map hit. The
	// health loop is off so the proxy's client carries only traffic.
	opts := cluster.Options{Writer: writer, Replicas: replicas, HealthInterval: -1, CacheEntries: -1,
		Client: &http.Client{Transport: pn.hops}}
	if traced {
		pn.sink = &spanSink{}
		opts.Tracer = obs.NewTracer(obs.TracerOptions{Service: "sweep-proxy", Writer: pn.sink, SampleN: 1})
	}
	p, err := cluster.NewProxy(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Close()
		return nil, err
	}
	pn.p, pn.url = p, "http://"+ln.Addr().String()
	pn.wg.Add(1)
	go func() {
		defer pn.wg.Done()
		if err := p.Serve(ln); err != nil {
			pn.errMu.Lock()
			pn.err = err
			pn.errMu.Unlock()
		}
	}()
	return pn, nil
}

func (pn *proxyNode) stop(ctx context.Context) error {
	err := pn.p.Shutdown(ctx)
	pn.wg.Wait()
	pn.errMu.Lock()
	defer pn.errMu.Unlock()
	return errors.Join(err, pn.err)
}

// stack is one set-up: the servers, their directory, and the reference
// bytes the set-up traffic produced.
type stack struct {
	dir   string
	nodes []*node // nodes[0] is the writer (the only sweepd outside cluster-mix)
	proxy *proxyNode
	front string // base URL the generator sends to
	// refs maps scenario ID to the record line set-up traffic returned.
	refs map[string][]byte
}

// setUp builds the workload's servers in a fresh directory under
// workdir and warms the fixture over /v1/sweep; cluster-mix then syncs
// both replicas with one segment-shipping pass and starts the proxy.
func setUp(ctx context.Context, p *plan, workdir string, client *http.Client, traced bool) (_ *stack, err error) {
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir, refs: map[string][]byte{}}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.tearDown(ctx))
		}
	}()
	writer, err := startNode("writer", filepath.Join(dir, "writer"), serve.Options{}, p.sz.lru, traced)
	if err != nil {
		return st, err
	}
	st.nodes, st.front = []*node{writer}, writer.url

	for _, g := range p.fixture {
		body, err := post(ctx, client, writer.url+"/v1/sweep", g.body)
		if err != nil {
			return st, fmt.Errorf("warming fixture: %w", err)
		}
		lines := bytes.SplitAfter(body, []byte("\n"))
		if len(lines) != len(g.scs)+1 || len(lines[len(g.scs)]) != 0 {
			return st, fmt.Errorf("warming fixture: %d records for a %d-scenario grid", len(lines)-1, len(g.scs))
		}
		for i, sc := range g.scs {
			st.refs[sc.id] = lines[i]
		}
	}
	if !p.w.cluster {
		return st, nil
	}

	var replicas []string
	for i := 0; i < 2; i++ {
		r, err := startNode(fmt.Sprintf("replica-%d", i), filepath.Join(dir, fmt.Sprintf("replica-%d", i)),
			serve.Options{QueueDepth: -1}, p.sz.lru, traced)
		if err != nil {
			return st, err
		}
		st.nodes = append(st.nodes, r)
		rep, err := cluster.NewReplicator(cluster.ReplicatorOptions{Writer: writer.url, Store: r.srv.Store()})
		if err != nil {
			return st, err
		}
		if err := rep.SyncOnce(ctx); err != nil {
			return st, fmt.Errorf("syncing %s: %w", r.name, err)
		}
		if got, want := r.srv.Store().Len(), writer.srv.Store().Len(); got != want {
			return st, fmt.Errorf("%s holds %d records after sync, writer %d", r.name, got, want)
		}
		replicas = append(replicas, r.url)
	}
	if st.proxy, err = startProxy(writer.url, replicas, traced); err != nil {
		return st, err
	}
	st.front = st.proxy.url
	return st, nil
}

// tearDown stops every server and removes the directory.
func (st *stack) tearDown(ctx context.Context) error {
	var errs []error
	if st.proxy != nil {
		errs = append(errs, st.proxy.stop(ctx))
	}
	for _, n := range st.nodes {
		errs = append(errs, n.stop(ctx))
	}
	errs = append(errs, os.RemoveAll(st.dir))
	return errors.Join(errs...)
}

// post sends one set-up request (a GET scrape when body is nil) and
// returns the 200 body.
func post(ctx context.Context, client *http.Client, url string, body []byte) ([]byte, error) {
	method := http.MethodPost
	var rd io.Reader = bytes.NewReader(body)
	if body == nil {
		method, rd = http.MethodGet, nil
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}
