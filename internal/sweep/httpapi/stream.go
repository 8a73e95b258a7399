package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweep/tlv"
)

// Stream writes one /v1/sweep response body in the encoding the request
// negotiated: JSONL flushed record by record (byte-identical to
// cmd/sweep -out), or v3 TLV frames flushed in batches of
// tlv.DefaultBatchRecords records or tlv.DefaultBatchBytes bytes. A
// ResponseWriter that is not an http.Flusher (HTTP/2 middleware
// wrappers, test recorders) streams without explicit flushes; net/http
// still delivers everything at handler return.
//
// Records arrive in one of two forms. WriteRecord encodes a record;
// sweepd streams a grid this way. WriteEncoded takes a record already
// in the stream's encoding, a JSON line or one TLV frame, and writes
// the bytes unchanged; the proxy splices its backends' /v1/scenario
// answers this way, asking each backend for the stream's encoding.
// Either way the body is the same bytes.
//
// The stream also owns the one decision a failing sweep handler needs:
// until a byte has reached the wire the handler may still answer with a
// status (see AbortIfStarted).
//
// The encoders are held by value: a stream costs one allocation.
type Stream struct {
	out    wire
	stages obs.StageObserver
	binary bool
	enc    json.Encoder    // JSONL mode
	bw     tlv.BatchWriter // TLV mode
}

// wire forwards the body to the ResponseWriter. It remembers whether it
// was ever written to, the point past which a status line is gone, and
// with flushEach flushes after every write: the TLV batch writer writes
// once per batch.
type wire struct {
	w         io.Writer
	flusher   http.Flusher // nil when w cannot flush
	flushEach bool
	started   bool
}

func (o *wire) Write(p []byte) (int, error) {
	o.started = true
	n, err := o.w.Write(p)
	if err == nil && o.flushEach && o.flusher != nil {
		o.flusher.Flush()
	}
	return n, err
}

// NewStream negotiates the encoding from r's Accept header and sets the
// response Content-Type. stages, when non-nil, receives the encode and
// flush time of every record.
func NewStream(w http.ResponseWriter, r *http.Request, stages obs.StageObserver) *Stream {
	s := &Stream{stages: stages, binary: Negotiate(r) == sweep.EncodingTLV}
	s.out.w = w
	s.out.flusher, _ = w.(http.Flusher)
	if s.binary {
		w.Header().Set("Content-Type", tlv.MediaType)
		s.out.flushEach = true
		s.bw = *tlv.NewBatchWriter(&s.out, nil, tlv.DefaultBatchRecords, tlv.DefaultBatchBytes)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
		s.enc = *json.NewEncoder(&s.out)
	}
	return s
}

// WriteRecord encodes one record. A JSONL record is flushed at once; a
// TLV record joins the pending batch, whose flush happens inside the
// encode when the batch fills, so its time counts as encode time.
func (s *Stream) WriteRecord(rec *sweep.Record) error {
	t0 := time.Now() //sweepvet:allow(timenow) stage timer: feeds metrics/traces only
	var err error
	if s.binary {
		err = s.bw.WriteRecord(rec)
	} else {
		// Encoding a copy keeps rec from escaping, so a TLV caller's
		// record stays on its stack.
		err = s.enc.Encode(*rec)
	}
	s.observe(obs.StageEncode, t0)
	if err == nil && !s.binary {
		s.flushLine()
	}
	return err
}

// WriteEncoded writes one record already in the stream's encoding: a
// JSON line, newline included, or one whole TLV frame. A line is
// flushed at once; a frame joins the pending batch. The bytes are not
// checked: a caller relaying a backend's answer validates it first.
func (s *Stream) WriteEncoded(b []byte) error {
	if s.binary {
		return s.bw.WriteFrame(b)
	}
	if _, err := s.out.Write(b); err != nil {
		return err
	}
	s.flushLine()
	return nil
}

// Flush writes the pending TLV batch; JSONL has nothing pending. Its
// error must be handled like a write error: the stream is incomplete.
func (s *Stream) Flush() error {
	if !s.binary {
		return nil
	}
	t0 := time.Now() //sweepvet:allow(timenow) stage timer: feeds metrics/traces only
	err := s.bw.Flush()
	s.observe(obs.StageFlush, t0)
	return err
}

// AbortIfStarted is the failure path of a sweep handler. When a byte of
// the body may have reached the wire, the status line is gone: it panics
// http.ErrAbortHandler so the client sees a truncated response, never a
// clean EOF that passes for a complete grid (a truncated TLV stream is
// equally unambiguous: the reader's final frame cuts off mid-frame).
// Otherwise it returns and the handler answers with a status. A TLV
// stream stays answerable until its first batch is written, which may
// be many records after the first WriteRecord.
func (s *Stream) AbortIfStarted() {
	if s.out.started {
		panic(http.ErrAbortHandler)
	}
}

// Encoding reports the encoding the request negotiated.
func (s *Stream) Encoding() sweep.Encoding {
	if s.binary {
		return sweep.EncodingTLV
	}
	return sweep.EncodingJSON
}

// Records counts TLV records framed (0 for JSONL).
func (s *Stream) Records() int64 { return s.bw.Records }

// Batches counts TLV batches written (0 for JSONL).
func (s *Stream) Batches() int64 { return s.bw.Batches }

func (s *Stream) flushLine() {
	t0 := time.Now() //sweepvet:allow(timenow) stage timer: feeds metrics/traces only
	if s.out.flusher != nil {
		s.out.flusher.Flush()
	}
	s.observe(obs.StageFlush, t0)
}

func (s *Stream) observe(st obs.Stage, t0 time.Time) {
	if s.stages != nil {
		s.stages.ObserveStage(st, time.Since(t0)) //sweepvet:allow(timenow) stage timer: feeds metrics/traces only
	}
}
