package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one timed phase inside a request's lifetime. The
// serving layers record a duration per stage into both the request's
// span and the process-wide stage histograms.
type Stage uint8

const (
	// StageAdmissionWait is time spent queued behind the simulation
	// admission gate before a worker slot freed up.
	StageAdmissionWait Stage = iota
	// StageSingleflightWait is time spent waiting on another caller's
	// in-flight simulation of the same scenario.
	StageSingleflightWait
	// StageStoreRead is time spent consulting the cache and backing
	// store (memory lookup + disk ReadAt + decode).
	StageStoreRead
	// StageSimulate is wall time inside the campaign runner.
	StageSimulate
	// StageEncode is time spent serializing response records (JSON or
	// TLV frames).
	StageEncode
	// StageFlush is time spent flushing encoded bytes to the client.
	StageFlush

	// NumStages bounds the stage enum; Span stage arrays are sized by
	// it and out-of-range stages are silently dropped.
	NumStages
)

var stageNames = [NumStages]string{
	"admission_wait",
	"singleflight_wait",
	"store_read",
	"simulate",
	"encode",
	"flush",
}

// String returns the snake_case stage name used in metric labels and
// span records.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageObserver receives per-stage durations. Spans implement it, as
// does the serving layer's fan-out into its stage histograms; the
// cache accepts one so its internal phases (store read, singleflight
// wait) are attributable per request.
type StageObserver interface {
	ObserveStage(st Stage, d time.Duration)
}

// SpanContext is the propagated identity of one span: a W3C
// trace-context (traceparent) triple.
type SpanContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Sampled bool
}

// Valid reports whether the context carries a usable (non-zero) trace
// and span ID.
func (sc SpanContext) Valid() bool {
	return sc.TraceID != [16]byte{} && sc.SpanID != [8]byte{}
}

// TraceHex returns the lowercase hex trace ID.
func (sc SpanContext) TraceHex() string {
	return hex.EncodeToString(sc.TraceID[:])
}

// SpanHex returns the lowercase hex span ID.
func (sc SpanContext) SpanHex() string {
	return hex.EncodeToString(sc.SpanID[:])
}

// Traceparent renders the context as a W3C traceparent header value:
// 00-<32 hex trace id>-<16 hex span id>-<2 hex flags>.
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceHex() + "-" + sc.SpanHex() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header value. Unknown
// versions, malformed fields and all-zero IDs are rejected (ok=false)
// — the receiving hop then starts a fresh trace, which is the
// spec-mandated recovery.
func ParseTraceparent(v string) (SpanContext, bool) {
	var sc SpanContext
	if len(v) < 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return sc, false
	}
	if v[0] != '0' || v[1] != '0' {
		return sc, false // only version 00 understood
	}
	if len(v) > 55 && v[55] != '-' {
		return sc, false
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(v[3:35])); err != nil {
		return sc, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(v[36:52])); err != nil {
		return sc, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(v[53:55])); err != nil {
		return sc, false
	}
	if !sc.Valid() {
		return sc, false
	}
	sc.Sampled = flags[0]&0x01 != 0
	return sc, true
}

// Span is one timed operation within a trace. Stage durations
// accumulate atomically so a span shared across sweep worker
// goroutines (a grid request fans its scenarios out) stays race-free.
// All methods are nil-receiver-safe, so unsampled code paths can pass
// a nil span without guards.
type Span struct {
	t      *Tracer
	sc     SpanContext
	parent [8]byte
	name   string
	start  time.Time
	stages [NumStages]atomic.Int64 // cumulative nanoseconds per stage
}

// ObserveStage accumulates a duration into one stage bucket. Hot path:
// runs per stage per request on serving goroutines, possibly
// concurrently from sweep workers — one bounds check and one atomic
// add, no allocation.
//
//sweepvet:hotpath
func (s *Span) ObserveStage(st Stage, d time.Duration) {
	if s == nil || st >= NumStages {
		return
	}
	s.stages[st].Add(int64(d))
}

// Context returns the span's propagation context (zero value for a nil
// span).
func (s *Span) Context() SpanContext { //sweepvet:allow(deadapi) cmd/sweepbench joins its load generator's spans to the servers' by it
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceHex returns the span's hex trace ID, or "" for a nil span.
func (s *Span) TraceHex() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceHex()
}

// Traceparent renders the header value to propagate to downstream
// hops, or "" for a nil span.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return s.sc.Traceparent()
}

// SpanRecord is the JSONL export shape of one finished span. Stage
// durations are microseconds; encoding/json sorts the map keys, so a
// record marshals deterministically.
type SpanRecord struct {
	Trace   string           `json:"trace"`
	Span    string           `json:"span"`
	Parent  string           `json:"parent,omitempty"`
	Service string           `json:"service"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_unix_ns"`
	DurUs   int64            `json:"duration_us"`
	Stages  map[string]int64 `json:"stages_us,omitempty"`
}

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Service names this process in exported spans ("sweepd",
	// "sweep-proxy").
	Service string
	// Writer receives one JSON line per sampled finished span; nil
	// disables export.
	Writer io.Writer
	// SampleN head-samples 1 in N locally-rooted traces (1 = every
	// trace, 0 = none). The decision is derived from the trace ID, so
	// every hop of a propagated trace agrees without coordination.
	SampleN int
	// SlowMs logs a structured warning (with trace ID) for any span
	// slower than this many milliseconds; 0 disables.
	SlowMs int
	// Logger receives slow-span warnings; nil means slog.Default().
	Logger *slog.Logger
}

// Tracer mints and finishes spans for one service. A nil *Tracer is
// inert: StartSpan returns nil and nil spans swallow every call, so
// call sites need no guards.
type Tracer struct {
	service string
	sampleN int
	slowNs  int64
	log     *slog.Logger
	mu      sync.Mutex // serializes JSONL writes
	w       io.Writer
}

// NewTracer builds a tracer; see TracerOptions.
func NewTracer(o TracerOptions) *Tracer {
	log := o.Logger
	if log == nil {
		log = slog.Default()
	}
	return &Tracer{
		service: o.Service,
		sampleN: o.SampleN,
		slowNs:  int64(o.SlowMs) * int64(time.Millisecond),
		log:     log,
		w:       o.Writer,
	}
}

// sampled derives the head-sampling decision from the trace ID's low
// eight bytes, so every hop that sees the same trace ID — locally
// rooted or propagated — reaches the same verdict.
func (t *Tracer) sampled(id [16]byte) bool {
	if t.sampleN <= 0 {
		return false
	}
	return binary.BigEndian.Uint64(id[8:])%uint64(t.sampleN) == 0
}

// StartSpan begins a span named name. A parseable traceparent value
// continues the incoming trace as a child span (honouring its sampled
// flag); anything else roots a fresh trace and applies local head
// sampling. The caller must Finish the span.
func (t *Tracer) StartSpan(name, traceparent string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, name: name, start: time.Now()}
	if parent, ok := ParseTraceparent(traceparent); ok {
		s.sc.TraceID = parent.TraceID
		s.sc.Sampled = parent.Sampled || t.sampled(parent.TraceID)
		s.parent = parent.SpanID
	} else {
		crand.Read(s.sc.TraceID[:])
		s.sc.Sampled = t.sampled(s.sc.TraceID)
	}
	crand.Read(s.sc.SpanID[:])
	return s
}

// Finish completes the span: exports it (if sampled and the tracer has
// a writer) and emits a slow-request warning past the threshold.
// Returns the span's wall duration; nil-safe.
func (s *Span) Finish() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	t := s.t
	if s.sc.Sampled && t.w != nil {
		rec := SpanRecord{
			Trace:   s.sc.TraceHex(),
			Span:    s.sc.SpanHex(),
			Service: t.service,
			Name:    s.name,
			StartNs: s.start.UnixNano(),
			DurUs:   d.Microseconds(),
		}
		if s.parent != [8]byte{} {
			rec.Parent = hex.EncodeToString(s.parent[:])
		}
		for st := Stage(0); st < NumStages; st++ {
			ns := s.stages[st].Load()
			if ns == 0 {
				continue
			}
			if rec.Stages == nil {
				rec.Stages = make(map[string]int64, int(NumStages))
			}
			rec.Stages[st.String()] = time.Duration(ns).Microseconds()
		}
		if line, err := json.Marshal(rec); err == nil {
			t.mu.Lock()
			t.w.Write(append(line, '\n'))
			t.mu.Unlock()
		}
	}
	if t.slowNs > 0 && int64(d) >= t.slowNs {
		t.log.Warn("slow request",
			"service", t.service,
			"name", s.name,
			"trace", s.sc.TraceHex(),
			"span", s.sc.SpanHex(),
			"duration_ms", d.Milliseconds(),
		)
	}
	return d
}

// ctxKey keys the span stored in a request context.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// TraceparentHeader is the canonical propagation header name.
const TraceparentHeader = "traceparent"

// TraceResponseHeader exposes the serving trace ID to clients so a
// slow response can be joined against exported spans and logs.
const TraceResponseHeader = "X-Sweep-Trace"
