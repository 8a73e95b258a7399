// Package tlv is the compact binary record encoding (record format v3)
// shared by the sweep store's segment files and the /v1/sweep streaming
// transport. It replaces json.Marshal/Unmarshal on the per-record hot
// path — the dominant serve/store cost at millions of records — with
// hand-rolled length-prefixed TLV field encoders in the style of
// ndnd/std/encoding: every field is TYPE (uvarint) LENGTH (uvarint)
// VALUE, nested structs are length-prefixed sub-TLVs (encoded in place,
// their length backpatched by beginNested/finishNested), and float
// slices pack as raw little-endian bits instead of one field per
// element.
//
// # Encoding conventions
//
// Field numbers are frozen per struct — the same append-only discipline
// the JSON records keep via omitempty tags, machine-enforced by
// sweepvet's tlvtags analyzer. The conventions mirror the JSON tags
// exactly so a TLV round-trip reproduces the record a JSON round-trip
// would:
//
//   - fields whose JSON tag has no omitempty always encode, even at
//     their zero value;
//   - omitempty fields encode only when non-zero (absent decodes to the
//     zero value);
//   - repeated fields (string lists, cell lists) encode one occurrence
//     per element; zero occurrences decode to the same empty-not-nil
//     slice the JSON writers emit;
//   - integers encode as zigzag varints (seed, a uint64, as a plain
//     uvarint), floats as 8 fixed little-endian IEEE-754 bytes — exact
//     bit round-trips, no decimal formatting;
//   - unknown field numbers are skipped on decode, the TLV twin of
//     encoding/json ignoring unknown keys, so future append-only fields
//     do not break old readers.
//
// # Framing
//
// On disk and on the wire a record travels inside a self-delimiting
// frame: 2 magic bytes, a little-endian uint32 payload length, the
// payload, and a CRC32 (IEEE) of the payload. The magic byte 0xD5 is
// not valid ASCII, so a JSONL scanner that wanders into TLV bytes sees
// garbage lines (skipped), and a TLV scanner that wanders into JSONL
// text never sees magic — the two formats coexist in one store
// directory and one scan loop. After a torn write, scanners resynchronize
// by searching for the next magic pair and trusting only frames whose
// CRC and payload decode both check out.
package tlv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// MediaType is the content type negotiated for binary sweep streams:
// a client sending "Accept: application/x-sweep-tlv" on /v1/sweep
// receives concatenated record frames instead of JSONL.
const MediaType = "application/x-sweep-tlv"

// RecordVersion is the store record format version carried inside every
// envelope payload. v1 is the JSON record envelope (unchanged since the
// first store layout); v2 is the sidecar index entry version; v3 is
// this binary encoding.
const RecordVersion = 3

// Frame layout constants.
const (
	frameMagic0 = 0xD5
	frameMagic1 = 0x33

	// FrameHeaderLen is magic (2) plus the little-endian uint32 payload
	// length (4).
	FrameHeaderLen = 6
	// FrameOverhead is the total framing cost per record: header plus
	// the trailing CRC32.
	FrameOverhead = FrameHeaderLen + 4

	// MaxFramePayload bounds a frame's declared payload so a corrupt
	// length never drives an allocation the process can't survive —
	// the same defense the store's index-location validation applies.
	MaxFramePayload = 64 << 20
)

// Frame parse failures. ErrFrameTruncated distinguishes "need more
// bytes" (a stream read in progress, or a torn tail) from structural
// garbage.
var (
	ErrFrameMagic     = errors.New("tlv: no frame magic")
	ErrFrameTruncated = errors.New("tlv: truncated frame")
	ErrFrameCRC       = errors.New("tlv: frame crc mismatch")
)

// AppendFrame appends one complete frame around payload and returns the
// extended slice.
//
//sweepvet:hotpath
func AppendFrame(dst, payload []byte) []byte { //sweepvet:allow(deadapi) oracle: the frame tests and the store's foreign-frame rescan test build frames with it
	dst = append(dst, frameMagic0, frameMagic1)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// beginFrame appends the frame header with a zero length placeholder;
// finishFrame backpatches it. The pair lets record encoders write the
// payload directly into dst — no per-record scratch buffer — while
// producing bytes identical to AppendFrame over the same payload.
//
//sweepvet:hotpath
func beginFrame(dst []byte) []byte {
	return append(dst, frameMagic0, frameMagic1, 0, 0, 0, 0)
}

// finishFrame closes the frame begun at offset start: everything
// appended since beginFrame is the payload, whose length is patched
// into the header and whose CRC is appended.
//
//sweepvet:hotpath
func finishFrame(dst []byte, start int) []byte {
	payload := dst[start+FrameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start+2:start+FrameHeaderLen], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// beginNested is beginFrame for a nested field: it appends the field
// number and a one-byte length placeholder, and returns the
// placeholder's offset. The caller appends the nested value in place,
// then finishNested backpatches its length, so each struct is described
// once, by its appender, with no size function to keep in step.
//
//sweepvet:hotpath
func beginNested(dst []byte, field uint64) ([]byte, int) {
	dst = appendUvarint(dst, field)
	at := len(dst)
	return append(dst, 0), at
}

// finishNested writes the uvarint length of everything appended since
// the placeholder at offset at. A length of 128 or more needs more than
// the one reserved byte, so the value shifts right to make room: the
// bytes equal a prefix computed up front, and with a capacity-sufficient
// dst nothing allocates.
//
//sweepvet:hotpath
func finishNested(dst []byte, at int) []byte {
	n := len(dst) - at - 1
	if n < 0x80 {
		dst[at] = byte(n)
		return dst
	}
	var prefix [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(prefix[:], uint64(n))
	dst = append(dst, prefix[1:w]...) // grow by the extra prefix bytes
	copy(dst[at+w:], dst[at+1:at+1+n])
	copy(dst[at:], prefix[:w])
	return dst
}

// ParseFrame reads the frame starting at data[0] and returns its
// payload (aliasing data) and the total frame length consumed.
//
//sweepvet:hotpath
func ParseFrame(data []byte) (payload []byte, frameLen int, err error) {
	if len(data) < FrameHeaderLen {
		if len(data) > 0 && (data[0] != frameMagic0 || (len(data) > 1 && data[1] != frameMagic1)) {
			return nil, 0, ErrFrameMagic
		}
		return nil, 0, ErrFrameTruncated
	}
	if data[0] != frameMagic0 || data[1] != frameMagic1 {
		return nil, 0, ErrFrameMagic
	}
	n := binary.LittleEndian.Uint32(data[2:6])
	if n > MaxFramePayload {
		return nil, 0, ErrFrameMagic // implausible length: treat as garbage, resync
	}
	total := FrameOverhead + int(n)
	if len(data) < total {
		return nil, 0, ErrFrameTruncated
	}
	payload = data[FrameHeaderLen : FrameHeaderLen+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[FrameHeaderLen+int(n):total]) {
		return nil, 0, ErrFrameCRC
	}
	return payload, total, nil
}

// NextFrame scans data for the next valid frame at or after offset off:
// ParseFrame at each candidate magic position, skipping garbage bytes
// (crash debris, torn frames, JSONL text) until a frame whose CRC
// checks out is found. It returns the payload, the offset the frame
// starts at, and the total frame length; ok is false when no complete
// valid frame remains.
//
//sweepvet:hotpath
func NextFrame(data []byte, off int) (payload []byte, start, frameLen int, ok bool) {
	for off < len(data) {
		// Hunt for the magic pair; everything before it is dead bytes.
		if data[off] != frameMagic0 {
			off++
			continue
		}
		p, n, err := ParseFrame(data[off:])
		if err == nil {
			return p, off, n, true
		}
		if errors.Is(err, ErrFrameTruncated) {
			// A torn tail can still hide a later intact frame if the torn
			// region happens to contain magic-looking bytes — but a
			// truncated length reaching past the buffer end means nothing
			// after this point can complete. Keep scanning one byte on so
			// short false-magic runs don't mask real frames.
			off++
			continue
		}
		off++
	}
	return nil, 0, 0, false
}

// --- TLV primitives -------------------------------------------------
//
// Append-style encoders over a caller-owned buffer (zero allocations
// when the buffer has capacity) and a cursor-style decoder. All sizes
// are uvarints; all field numbers fit one uvarint byte in practice.

//sweepvet:hotpath
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// appendUint encodes a plain unsigned value field.
//
//sweepvet:hotpath
func appendUint(b []byte, field uint64, v uint64) []byte {
	b = appendUvarint(b, field)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b = appendUvarint(b, uint64(n))
	return append(b, tmp[:n]...)
}

// appendInt encodes a signed value field as a zigzag varint.
//
//sweepvet:hotpath
func appendInt(b []byte, field uint64, v int64) []byte {
	return appendUint(b, field, uint64(v<<1)^uint64(v>>63))
}

// appendF64 encodes a float field as 8 fixed little-endian bytes.
//
//sweepvet:hotpath
func appendF64(b []byte, field uint64, v float64) []byte {
	b = appendUvarint(b, field)
	b = appendUvarint(b, 8)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendBool encodes a bool field as one byte.
//
//sweepvet:hotpath
func appendBool(b []byte, field uint64, v bool) []byte {
	b = appendUvarint(b, field)
	b = appendUvarint(b, 1)
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendString encodes a string field's raw bytes.
//
//sweepvet:hotpath
func appendString(b []byte, field uint64, s string) []byte {
	b = appendUvarint(b, field)
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendF64Packed encodes a float slice as one field of concatenated
// little-endian bits — 8 bytes per element, no per-element framing.
//
//sweepvet:hotpath
func appendF64Packed(b []byte, field uint64, vs []float64) []byte {
	b = appendUvarint(b, field)
	b = appendUvarint(b, uint64(8*len(vs)))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// dec is a TLV field cursor over one payload.
type dec struct {
	b   []byte
	off int
}

// Malformed-value decode errors, hoisted to package level so the happy
// decode path allocates nothing and the sad one allocates nothing new.
var (
	errMalformedUvarint = errors.New("tlv: malformed uvarint value")
	errMalformedFloat   = errors.New("tlv: malformed float value")
	errMalformedBool    = errors.New("tlv: malformed bool value")
	errMalformedPacked  = errors.New("tlv: malformed packed float value")
)

// next returns the next field's number and value bytes; done reports a
// clean end of payload, and err a structural failure (truncated field).
//
//sweepvet:hotpath
func (d *dec) next() (field uint64, val []byte, done bool, err error) {
	if d.off >= len(d.b) {
		return 0, nil, true, nil
	}
	f, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		//sweepvet:allow(hotpath) corruption error path, never taken on CRC-valid frames
		return 0, nil, false, fmt.Errorf("tlv: bad field number at offset %d", d.off)
	}
	d.off += n
	l, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		//sweepvet:allow(hotpath) corruption error path, never taken on CRC-valid frames
		return 0, nil, false, fmt.Errorf("tlv: bad field length at offset %d", d.off)
	}
	d.off += n
	if l > uint64(len(d.b)-d.off) {
		//sweepvet:allow(hotpath) corruption error path, never taken on CRC-valid frames
		return 0, nil, false, fmt.Errorf("tlv: field %d overruns payload", f)
	}
	val = d.b[d.off : d.off+int(l)]
	d.off += int(l)
	return f, val, false, nil
}

//sweepvet:hotpath
func decUint(val []byte) (uint64, error) {
	v, n := binary.Uvarint(val)
	if n <= 0 || n != len(val) {
		return 0, errMalformedUvarint
	}
	return v, nil
}

//sweepvet:hotpath
func decInt(val []byte) (int64, error) {
	u, err := decUint(val)
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

//sweepvet:hotpath
func decIntAsInt(val []byte) (int, error) {
	v, err := decInt(val)
	return int(v), err
}

//sweepvet:hotpath
func decF64(val []byte) (float64, error) {
	if len(val) != 8 {
		return 0, errMalformedFloat
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(val)), nil
}

//sweepvet:hotpath
func decBool(val []byte) (bool, error) {
	if len(val) != 1 || val[0] > 1 {
		return false, errMalformedBool
	}
	return val[0] == 1, nil
}

func decF64Packed(val []byte) ([]float64, error) {
	if len(val)%8 != 0 {
		return nil, errMalformedPacked
	}
	if len(val) == 0 {
		return nil, nil
	}
	out := make([]float64, len(val)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(val[8*i:]))
	}
	return out, nil
}
