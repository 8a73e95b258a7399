package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweep/tlv"
)

func sweepRequest(accept string) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/sweep", nil)
	if accept != "" {
		r.Header.Set("Accept", accept)
	}
	return r
}

// record is a small synthetic record: 65 of them stay far below the
// 64 KiB byte threshold, so only the record count triggers a flush.
// Its slices are non-nil, as the TLV decoder returns them.
func record(i int) *sweep.Record {
	return &sweep.Record{Scenario: fmt.Sprintf("s%03d", i), Seed: uint64(i), Profile: "5G",
		TargetCells: []string{}, Cells: []sweep.CellAggregate{}}
}

// aborts runs AbortIfStarted and reports whether it panicked with
// http.ErrAbortHandler; any other panic propagates.
func aborts(st *Stream) (aborted bool) {
	defer func() {
		if v := recover(); v != nil {
			if v != http.ErrAbortHandler {
				panic(v)
			}
			aborted = true
		}
	}()
	st.AbortIfStarted()
	return false
}

// answerable asserts that a failing handler can still write a status:
// AbortIfStarted returns, and the status and error body land.
func answerable(t *testing.T, rr *httptest.ResponseRecorder, st *Stream) {
	t.Helper()
	if aborts(st) {
		t.Fatal("stream aborted before anything reached the wire")
	}
	Error(rr, http.StatusBadGateway, "boom")
	if rr.Code != http.StatusBadGateway || rr.Body.String() != "{\"error\":\"boom\"}\n" {
		t.Fatalf("status not writable: %d %q", rr.Code, rr.Body.String())
	}
}

func decodeTLV(t *testing.T, body []byte) []sweep.Record {
	t.Helper()
	sr := tlv.NewStreamReader(bytes.NewReader(body))
	var recs []sweep.Record
	for {
		rec, err := sr.NextRecord()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatalf("tlv body broke after %d records: %v", len(recs), err)
		}
		recs = append(recs, rec)
	}
}

func TestStreamJSONLAbortsAfterFirstRecord(t *testing.T) {
	rr := httptest.NewRecorder()
	st := NewStream(rr, sweepRequest(""), nil)
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	if aborts(st) {
		t.Fatal("fresh stream aborted")
	}
	// An encode failure writes nothing: still answerable.
	bad := record(0)
	bad.GhostRate = math.NaN()
	if err := st.WriteRecord(bad); err == nil {
		t.Fatal("NaN record encoded")
	}
	answerable(t, rr, st)

	rr = httptest.NewRecorder()
	st = NewStream(rr, sweepRequest(""), nil)
	if err := st.WriteRecord(record(1)); err != nil {
		t.Fatal(err)
	}
	if !rr.Flushed {
		t.Fatal("JSONL record not flushed")
	}
	if !aborts(st) {
		t.Fatal("failure after the first record did not abort")
	}
}

func TestStreamTLVAnswerableUntilFirstBatch(t *testing.T) {
	rr := httptest.NewRecorder()
	st := NewStream(rr, sweepRequest(tlv.MediaType), nil)
	if ct := rr.Header().Get("Content-Type"); ct != tlv.MediaType {
		t.Fatalf("Content-Type %q", ct)
	}
	for i := 0; i < tlv.DefaultBatchRecords-1; i++ {
		if err := st.WriteRecord(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if rr.Body.Len() != 0 || st.Batches() != 0 {
		t.Fatalf("%d buffered records reached the wire", tlv.DefaultBatchRecords-1)
	}
	answerable(t, rr, st)

	rr = httptest.NewRecorder()
	st = NewStream(rr, sweepRequest(tlv.MediaType), nil)
	const n = tlv.DefaultBatchRecords + 1
	for i := 0; i < n; i++ {
		if err := st.WriteRecord(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Batches() != 1 || !rr.Flushed {
		t.Fatalf("after %d records: %d batches, flushed=%v; want the first batch flushed", n, st.Batches(), rr.Flushed)
	}
	if got := decodeTLV(t, rr.Body.Bytes()); len(got) != tlv.DefaultBatchRecords {
		t.Fatalf("first batch carried %d records, want %d", len(got), tlv.DefaultBatchRecords)
	}
	if !aborts(st) {
		t.Fatal("failure after the first batch did not abort")
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	got := decodeTLV(t, rr.Body.Bytes())
	if len(got) != n || st.Batches() != 2 || st.Records() != n {
		t.Fatalf("stream carried %d records in %d batches (counted %d), want %d in 2", len(got), st.Batches(), st.Records(), n)
	}
	if !reflect.DeepEqual(got[n-1], *record(n - 1)) {
		t.Fatalf("last record %+v", got[n-1])
	}
}

// failWriter is a ResponseWriter whose connection is gone.
type failWriter struct{ *httptest.ResponseRecorder }

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("connection reset") }

func TestStreamWriteFailureAborts(t *testing.T) {
	for _, accept := range []string{"", tlv.MediaType} {
		st := NewStream(failWriter{httptest.NewRecorder()}, sweepRequest(accept), nil)
		err := st.WriteRecord(record(0))
		if err == nil {
			err = st.Flush()
		}
		if err == nil {
			t.Fatalf("Accept %q: write to a dead connection succeeded", accept)
		}
		if !aborts(st) {
			t.Fatalf("Accept %q: failed write left the stream answerable", accept)
		}
	}
}

// TestStreamWriteEncoded: records handed over already encoded reach the
// wire as exactly the bytes WriteRecord writes, in both encodings — a
// JSON line verbatim, a TLV frame spliced into the pending batch — and
// a TLV stream stays answerable until that batch is written.
func TestStreamWriteEncoded(t *testing.T) {
	for _, accept := range []string{"", tlv.MediaType} {
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		ref := NewStream(want, sweepRequest(accept), nil)
		st := NewStream(got, sweepRequest(accept), nil)
		for i := 0; i < 3; i++ {
			if err := ref.WriteRecord(record(i)); err != nil {
				t.Fatal(err)
			}
			b := tlv.AppendRecord(nil, record(i))
			if accept == "" {
				line, err := json.Marshal(record(i))
				if err != nil {
					t.Fatal(err)
				}
				b = append(line, '\n')
			}
			if err := st.WriteEncoded(b); err != nil {
				t.Fatalf("Accept %q: %v", accept, err)
			}
		}
		if accept != "" {
			if aborts(st) {
				t.Fatal("TLV stream aborted before its first batch was written")
			}
			if st.Records() != 3 || st.Batches() != 0 {
				t.Fatalf("records=%d batches=%d before Flush, want 3/0", st.Records(), st.Batches())
			}
		}
		if err := ref.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("Accept %q: encoded records wrote %d bytes unlike WriteRecord's %d",
				accept, got.Body.Len(), want.Body.Len())
		}
	}
}

// nonFlusher hides the recorder's Flush method: the shape of an HTTP/2
// middleware wrapper.
type nonFlusher struct{ http.ResponseWriter }

// stageCount counts stage observations.
type stageCount [obs.NumStages]int

func (c *stageCount) ObserveStage(st obs.Stage, _ time.Duration) { c[st]++ }

func TestStreamNonFlusherAndStages(t *testing.T) {
	const n = 3
	for _, accept := range []string{"", tlv.MediaType} {
		rr := httptest.NewRecorder()
		var stages stageCount
		st := NewStream(nonFlusher{rr}, sweepRequest(accept), &stages)
		for i := 0; i < n; i++ {
			if err := st.WriteRecord(record(i)); err != nil {
				t.Fatalf("Accept %q: %v", accept, err)
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatalf("Accept %q: %v", accept, err)
		}
		if rr.Flushed {
			t.Fatalf("Accept %q: flushed through a non-Flusher", accept)
		}
		var got []sweep.Record
		if accept == "" {
			dec := json.NewDecoder(rr.Body)
			for dec.More() {
				var rec sweep.Record
				if err := dec.Decode(&rec); err != nil {
					t.Fatal(err)
				}
				got = append(got, rec)
			}
		} else {
			got = decodeTLV(t, rr.Body.Bytes())
		}
		if len(got) != n {
			t.Fatalf("Accept %q: %d records, want %d", accept, len(got), n)
		}
		// JSONL flushes per record; TLV's one flush is the final Flush.
		wantFlush := n
		if accept != "" {
			wantFlush = 1
		}
		if stages[obs.StageEncode] != n || stages[obs.StageFlush] != wantFlush {
			t.Fatalf("Accept %q: stages encode=%d flush=%d, want %d/%d",
				accept, stages[obs.StageEncode], stages[obs.StageFlush], n, wantFlush)
		}
	}
}
