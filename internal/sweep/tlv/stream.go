package tlv

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/sweep"
)

// Batched stream defaults: flush once this many records or this many
// bytes accumulate, whichever first. Tuned to keep per-record syscall
// and chunked-encoding overhead negligible without holding more than a
// moment of output back from a following client.
const (
	DefaultBatchRecords = 64
	DefaultBatchBytes   = 64 << 10
)

// StreamReader decodes a TLV frame stream (the /v1/sweep binary
// response body) incrementally. Unlike NextFrame's resync scan over a
// segment file, a transport stream is trusted to be frame-aligned, so
// any structural garbage fails loudly instead of being skipped.
type StreamReader struct {
	r   *bufio.Reader
	hdr [FrameHeaderLen]byte
	buf []byte
}

// NewStreamReader wraps r for frame-at-a-time reading.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{r: bufio.NewReader(r)}
}

// Next returns the next frame's payload. The slice is reused by the
// following Next call; copy it to retain. A clean end of stream returns
// io.EOF; a stream cut mid-frame returns io.ErrUnexpectedEOF.
func (sr *StreamReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(sr.r, sr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if sr.hdr[0] != frameMagic0 || sr.hdr[1] != frameMagic1 {
		return nil, ErrFrameMagic
	}
	n := binary.LittleEndian.Uint32(sr.hdr[2:6])
	if n > MaxFramePayload {
		return nil, ErrFrameMagic
	}
	need := int(n) + 4
	if cap(sr.buf) < need {
		sr.buf = make([]byte, need)
	}
	sr.buf = sr.buf[:need]
	if _, err := io.ReadFull(sr.r, sr.buf); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	payload := sr.buf[:n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(sr.buf[n:]) {
		return nil, ErrFrameCRC
	}
	return payload, nil
}

// NextRecord reads and decodes the next stream record. io.EOF marks a
// clean end of stream.
func (sr *StreamReader) NextRecord() (sweep.Record, error) {
	payload, err := sr.Next()
	if err != nil {
		return sweep.Record{}, err
	}
	return DecodeRecordPayload(payload)
}

// BatchWriter accumulates encoded record frames and writes them out in
// batches — kcp-go's batch-loop idea applied to an HTTP stream: instead
// of one Write plus one chunked-encoding Flush per record, many records
// ride one write. flush, when non-nil, runs after every batch write
// (a streaming response's Flush method; nil degrades to plain
// buffered writes, which is also the non-Flusher ResponseWriter path).
type BatchWriter struct {
	w        io.Writer
	flush    func()
	maxRecs  int
	maxBytes int
	buf      []byte
	recs     int

	// Records counts frames accepted, Batches the writes that carried
	// them — the stream stats serve reports.
	Records int64
	Batches int64
}

// NewBatchWriter builds a batched frame writer. maxRecs/maxBytes <= 0
// select the defaults.
func NewBatchWriter(w io.Writer, flush func(), maxRecs, maxBytes int) *BatchWriter {
	if maxRecs <= 0 {
		maxRecs = DefaultBatchRecords
	}
	if maxBytes <= 0 {
		maxBytes = DefaultBatchBytes
	}
	return &BatchWriter{w: w, flush: flush, maxRecs: maxRecs, maxBytes: maxBytes}
}

// WriteRecord encodes rec as a frame into the current batch, flushing
// first if the batch is full.
func (bw *BatchWriter) WriteRecord(rec *sweep.Record) error {
	bw.buf = AppendRecord(bw.buf, rec)
	bw.recs++
	bw.Records++
	if bw.recs >= bw.maxRecs || len(bw.buf) >= bw.maxBytes {
		return bw.Flush()
	}
	return nil
}

// WriteFrame adds an already-framed record (raw bytes from a segment or
// an upstream stream) to the current batch.
func (bw *BatchWriter) WriteFrame(frame []byte) error {
	bw.buf = append(bw.buf, frame...)
	bw.recs++
	bw.Records++
	if bw.recs >= bw.maxRecs || len(bw.buf) >= bw.maxBytes {
		return bw.Flush()
	}
	return nil
}

// Flush writes the pending batch. Safe to call with nothing pending.
func (bw *BatchWriter) Flush() error {
	if len(bw.buf) == 0 {
		return nil
	}
	if _, err := bw.w.Write(bw.buf); err != nil {
		return fmt.Errorf("tlv: batch write: %w", err)
	}
	bw.Batches++
	bw.buf = bw.buf[:0]
	bw.recs = 0
	if bw.flush != nil {
		bw.flush()
	}
	return nil
}
