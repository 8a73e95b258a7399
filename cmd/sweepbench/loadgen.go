package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep/tlv"
)

// sample is one timed operation as the client saw it. Latency runs from
// the intended send time to the last body byte, so a stall that delays
// later sends is charged to them (no coordinated omission); lag is how
// late the generator actually sent.
type sample struct {
	op       *op
	intended time.Time
	sent     time.Time
	done     time.Time
	// queued is true when every connection was busy at the intended
	// time: the op waited for one, and its lag is queueing, not the
	// generator running late.
	queued  bool
	ok      bool
	err     error
	bytes   int
	records int
	trace   string // client span trace ID (traced runs)
	span    string // client span ID (traced runs)
}

func (s *sample) latency() time.Duration { return s.done.Sub(s.intended) }
func (s *sample) lag() time.Duration     { return s.sent.Sub(s.intended) }

// generator issues ops over at most conns connections to one base URL.
type generator struct {
	client *http.Client
	base   string
	conns  int
	// tracer roots one client span per op in traced runs; nil otherwise.
	tracer *obs.Tracer
	// check verifies a 200 body and returns its record count.
	check func(o *op, body []byte) (int, error)
}

// newTransport caps the generator at conns connections to any host.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
}

// runOpen sends ops on their schedule from start. Workers take ops in
// schedule order; an op due while every connection is busy waits for
// the first free one and its latency includes the wait. Ops not sent
// before ctx ends fail.
func (g *generator) runOpen(ctx context.Context, ops []op, start time.Time) []sample {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				s := &samples[i]
				s.op = &ops[i]
				s.intended = start.Add(ops[i].at)
				s.queued = time.Now().After(s.intended)
				if err := sleepUntil(ctx, s.intended); err != nil {
					s.err = fmt.Errorf("not sent: %w", err)
					continue
				}
				g.do(ctx, s)
			}
		}()
	}
	wg.Wait()
	return samples
}

// runClosed keeps every connection busy with the op cycle until stopAt;
// each op is intended the moment its connection frees up. Ops started
// before stopAt run to completion or until ctx ends.
func (g *generator) runClosed(ctx context.Context, ops []op, stopAt time.Time) []sample {
	per := make([][]sample, g.conns)
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; ctx.Err() == nil; k += g.conns {
				now := time.Now()
				if !now.Before(stopAt) {
					return
				}
				s := sample{op: &ops[k%len(ops)], intended: now}
				g.do(ctx, &s)
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do performs one op and fills s.
func (g *generator) do(ctx context.Context, s *sample) {
	o := s.op
	path, body, name := "/v1/scenario", o.body(), "scenario"
	if o.kind == opStream {
		path, name = "/v1/sweep", "sweep"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+path, bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if o.tlv {
		req.Header.Set("Accept", tlv.MediaType)
	}
	sp := g.tracer.StartSpan(name, "")
	if sp != nil {
		req.Header.Set(obs.TraceparentHeader, sp.Traceparent())
		s.trace, s.span = sp.TraceHex(), sp.Context().SpanHex()
	}
	s.sent = time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		s.done = time.Now()
		sp.Finish()
		s.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	sp.Finish()
	switch {
	case err != nil:
		s.err = fmt.Errorf("read body: %w", err)
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	default:
		s.bytes = len(data)
		s.records, s.err = g.check(o, data)
		s.ok = s.err == nil
	}
}

func (o *op) body() []byte {
	if o.kind == opStream {
		return o.grid.body
	}
	return o.sc.body
}

// hop is one HTTP request into a server as timed by its caller's
// transport: from RoundTrip to the last body byte.
type hop struct {
	host   string
	path   string
	status int
	dur    time.Duration
}

// hopTimer is the timing RoundTripper: the generator's client and the
// proxy's backend client (cluster.Options.Client) both carry one, so
// every request into a server is counted and timed by its caller.
type hopTimer struct {
	next http.RoundTripper
	mu   sync.Mutex
	hops []hop
}

func (h *hopTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := h.next.RoundTrip(req)
	if err != nil {
		h.add(hop{host: req.URL.Host, path: req.URL.Path, dur: time.Since(t0)})
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, h: h, t0: t0,
		hop: hop{host: req.URL.Host, path: req.URL.Path, status: resp.StatusCode}}
	return resp, nil
}

func (h *hopTimer) add(x hop) {
	h.mu.Lock()
	h.hops = append(h.hops, x)
	h.mu.Unlock()
}

// take returns the hops recorded since the last take and forgets them.
func (h *hopTimer) take() []hop {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.hops
	h.hops = nil
	return out
}

// timedBody records its hop once: at EOF, or at Close for a body the
// caller abandons.
type timedBody struct {
	io.ReadCloser
	h    *hopTimer
	t0   time.Time
	hop  hop
	once sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.record()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.record()
	return b.ReadCloser.Close()
}

func (b *timedBody) record() {
	b.once.Do(func() {
		b.hop.dur = time.Since(b.t0)
		b.h.add(b.hop)
	})
}
