// Package httpapi is the wire contract sweepd (internal/sweep/serve) and
// sweep-proxy (internal/sweep/cluster) share: the JSON error body, the
// request-body bound, method guards, the /v1/scenario body memo and
// answer headers, ETag matching, record encoding negotiation, grid
// parsing, endpoint instrumentation and the /v1/sweep response stream.
// Both daemons answer a malformed request with the same status, headers
// and bytes because both call the same code here.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweep/tlv"
)

// MaxBodyBytes bounds request bodies; axes and grid specs are tiny.
const MaxBodyBytes = 1 << 20

// DefaultMaxGridScenarios rejects grids that expand past this many
// scenarios when a daemon's MaxGridScenarios option is zero.
const DefaultMaxGridScenarios = 1 << 16

// Error writes the {"error": msg} body with the given status.
func Error(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// ReadBody reads a request body up to MaxBodyBytes, answering 400 when it
// cannot: the body a passthrough forwards is bounded and rejected exactly
// like the ones the daemons parse.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		badBody(w, err)
		return nil, false
	}
	return body, true
}

// maxPooledBody is the largest body buffer put back into bodyBufs: one
// oversized request must not pin a megabyte in the pool.
const maxPooledBody = 64 << 10

// bodyBufs recycles the buffers parsed request bodies are read into.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads a whole request body into a pooled buffer, answering
// 400 past MaxBodyBytes even when a valid value ends before the bound:
// every endpoint refuses an oversized body the same way, whether it
// parses the body or forwards it (ReadBody). The caller hands the
// buffer back with putBody.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		putBody(buf)
		badBody(w, err)
		return nil, false
	}
	return buf, true
}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodyBufs.Put(buf)
	}
}

// decodeStrict decodes the first JSON value in rd into v, refusing
// unknown fields. Whatever follows that value is ignored.
func decodeStrict(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func badBody(w http.ResponseWriter, err error) {
	Error(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
}

// RequireMethod answers 405 with an Allow header unless r uses method.
func RequireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		Error(w, http.StatusMethodNotAllowed, method+" only")
		return false
	}
	return true
}

// ETagMatch reports whether an If-None-Match header names the given
// entity tag: any listed tag (weak validators compare equal for GET
// semantics) or the wildcard. It walks the header in place and
// allocates nothing.
func ETagMatch(header, etag string) bool {
	for rest, more := header, header != ""; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		part = strings.TrimPrefix(strings.TrimSpace(part), "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// Negotiate picks the record encoding a request asks for: TLV when its
// Accept header lists the TLV media type. Anything else — absent
// header, */*, application/x-ndjson — keeps the JSON default, so old
// clients' bytes never change under them. It walks the header in
// place and allocates nothing.
func Negotiate(r *http.Request) sweep.Encoding {
	for rest, more := r.Header.Get("Accept"), true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		mt, _, _ := strings.Cut(part, ";")
		if strings.EqualFold(strings.TrimSpace(mt), tlv.MediaType) {
			return sweep.EncodingTLV
		}
	}
	return sweep.EncodingJSON
}

// ParseGrid reads the whole body (see readBody), then decodes and
// resolves a grid request, answering 413 past limit scenarios before
// anything proportional to the grid is allocated.
func ParseGrid(w http.ResponseWriter, r *http.Request, limit int) (sweep.Grid, bool) {
	buf, ok := readBody(w, r)
	if !ok {
		return sweep.Grid{}, false
	}
	defer putBody(buf)
	var spec sweep.GridSpec
	if err := decodeStrict(bytes.NewReader(buf.Bytes()), &spec); err != nil {
		badBody(w, err)
		return sweep.Grid{}, false
	}
	g, err := spec.Grid()
	if err != nil {
		Error(w, http.StatusBadRequest, err.Error())
		return g, false
	}
	size, err := g.Size()
	if err != nil {
		Error(w, http.StatusBadRequest, err.Error())
		return g, false
	}
	if size > limit {
		Error(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("grid expands to %d scenarios, limit %d", size, limit))
		return g, false
	}
	return g, true
}

// Serve serves hs on ln until Shutdown (reported as nil) or a listener
// error.
func Serve(hs *http.Server, ln net.Listener) error {
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Instrument wraps one endpoint: it starts the request's span (nil when
// tracer is nil), echoes the trace ID to the client so a slow response
// can be joined against exported spans and logs, hands the span to fn
// through the request context (so backend hops propagate it), and times
// the whole request into hist.
func Instrument(hist *obs.Histogram, tracer *obs.Tracer, name string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now() //sweepvet:allow(timenow) endpoint latency counter
		sp := tracer.StartSpan(name, r.Header.Get(obs.TraceparentHeader))
		defer func() {
			hist.Observe(time.Since(t0).Microseconds()) //sweepvet:allow(timenow) endpoint latency counter
			sp.Finish()
		}()
		if sp != nil {
			w.Header().Set(obs.TraceResponseHeader, sp.TraceHex())
			r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
		}
		fn(w, r)
	}
}
