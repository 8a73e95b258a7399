package tlv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{},
		{0x00},
		[]byte("hello tlv"),
		bytes.Repeat([]byte{0xD5, 0x33}, 100), // magic-looking payload bytes
	}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	off := 0
	for i, want := range payloads {
		got, n, err := ParseFrame(buf[off:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload %q, want %q", i, got, want)
		}
		if n != FrameOverhead+len(want) {
			t.Fatalf("frame %d: consumed %d, want %d", i, n, FrameOverhead+len(want))
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestParseFrameErrors(t *testing.T) {
	frame := AppendFrame(nil, []byte("payload"))

	if _, _, err := ParseFrame([]byte("{\"json\":1}")); !errors.Is(err, ErrFrameMagic) {
		t.Fatalf("JSONL bytes: err = %v, want ErrFrameMagic", err)
	}
	if _, _, err := ParseFrame(frame[:4]); !errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("short header: err = %v, want ErrFrameTruncated", err)
	}
	if _, _, err := ParseFrame(frame[:len(frame)-3]); !errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("torn tail: err = %v, want ErrFrameTruncated", err)
	}

	corrupt := append([]byte(nil), frame...)
	corrupt[FrameHeaderLen] ^= 0xFF
	if _, _, err := ParseFrame(corrupt); !errors.Is(err, ErrFrameCRC) {
		t.Fatalf("flipped payload byte: err = %v, want ErrFrameCRC", err)
	}

	// A corrupt length field larger than MaxFramePayload must read as
	// garbage (resync) rather than drive a giant allocation.
	huge := []byte{frameMagic0, frameMagic1}
	huge = binary.LittleEndian.AppendUint32(huge, MaxFramePayload+1)
	huge = append(huge, make([]byte, 32)...)
	if _, _, err := ParseFrame(huge); !errors.Is(err, ErrFrameMagic) {
		t.Fatalf("implausible length: err = %v, want ErrFrameMagic", err)
	}
}

func TestNextFrameResync(t *testing.T) {
	// Garbage prefix, a JSONL line, a torn frame, then two intact
	// frames: the scan must surface exactly the intact payloads.
	var buf []byte
	buf = append(buf, 0xD5, 0x00, 0x01) // false magic start
	buf = append(buf, []byte("{\"v\":1,\"id\":\"abc\"}\n")...)
	torn := AppendFrame(nil, []byte("torn-away"))
	buf = append(buf, torn[:len(torn)-5]...)
	first := len(buf)
	buf = AppendFrame(buf, []byte("alpha"))
	buf = AppendFrame(buf, []byte("beta"))

	payload, start, n, ok := NextFrame(buf, 0)
	if !ok || string(payload) != "alpha" {
		t.Fatalf("first scan: ok=%v payload=%q", ok, payload)
	}
	if start != first {
		t.Fatalf("first frame start = %d, want %d", start, first)
	}
	payload, _, _, ok = NextFrame(buf, start+n)
	if !ok || string(payload) != "beta" {
		t.Fatalf("second scan: ok=%v payload=%q", ok, payload)
	}
	if _, _, _, ok = NextFrame(buf, start+n+FrameOverhead+len("beta")); ok {
		t.Fatal("scan past end: ok=true, want false")
	}
}

func TestNextFrameTornTailHidesNothing(t *testing.T) {
	// A frame torn mid-payload followed by an intact frame: the intact
	// one is still found even though the torn header "reaches past" it.
	torn := AppendFrame(nil, bytes.Repeat([]byte{0xAB}, 64))
	var buf []byte
	buf = append(buf, torn[:10]...)
	buf = AppendFrame(buf, []byte("survivor"))
	payload, _, _, ok := NextFrame(buf, 0)
	if !ok || string(payload) != "survivor" {
		t.Fatalf("ok=%v payload=%q, want survivor", ok, payload)
	}
}

func TestVarintPrimitives(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<62 - 1, -(1 << 62)} {
		b := appendInt(nil, 7, v)
		d := dec{b: b}
		f, val, done, err := d.next()
		if err != nil || done || f != 7 {
			t.Fatalf("v=%d: f=%d done=%v err=%v", v, f, done, err)
		}
		got, err := decInt(val)
		if err != nil || got != v {
			t.Fatalf("decInt(%d) = %d, %v", v, got, err)
		}
	}
}

// TestFinishNestedBoundaries pins the backpatched length prefix at
// every uvarint width boundary: the bytes must equal a prefix computed
// up front, whether the one reserved byte suffices or the value shifts
// right by one, two or three bytes.
func TestFinishNestedBoundaries(t *testing.T) {
	for _, n := range []int{0, 127, 128, 16383, 16384, 1 << 21} {
		value := make([]byte, n)
		for i := range value {
			value[i] = byte(i*7 + 1)
		}
		dst := []byte("head")
		dst, at := beginNested(dst, 5)
		dst = finishNested(append(dst, value...), at)

		want := appendUvarint([]byte("head"), 5)
		want = appendUvarint(want, uint64(n))
		want = append(want, value...)
		if !bytes.Equal(dst, want) {
			t.Fatalf("len %d: backpatched bytes differ from an up-front prefix", n)
		}
	}
}

// TestFinishNestedZeroAllocWarm: widening the prefix shifts the value
// inside dst, so a capacity-sufficient dst still allocates nothing.
func TestFinishNestedZeroAllocWarm(t *testing.T) {
	value := make([]byte, 16384) // needs a 3-byte prefix: shifts by 2
	dst := make([]byte, 0, len(value)+8)
	allocs := testing.AllocsPerRun(100, func() {
		var at int
		dst, at = beginNested(dst[:0], 5)
		dst = finishNested(append(dst, value...), at)
	})
	if allocs != 0 {
		t.Fatalf("warm widening finishNested allocates %.1f times/op, want 0", allocs)
	}
	if len(dst) != 1+3+len(value) {
		t.Fatalf("nested field length %d, want %d", len(dst), 1+3+len(value))
	}
}

func TestDecoderRejectsMalformed(t *testing.T) {
	// Field length overrunning the payload must error, not panic.
	b := appendUvarint(nil, 1)
	b = appendUvarint(b, 100) // claims 100 bytes, none follow
	d := dec{b: b}
	if _, _, _, err := d.next(); err == nil {
		t.Fatal("overrun field length: err = nil")
	}

	if _, err := decUint([]byte{0x80}); err == nil {
		t.Fatal("truncated uvarint value: err = nil")
	}
	if _, err := decUint([]byte{0x01, 0x00}); err == nil {
		t.Fatal("trailing bytes after uvarint: err = nil")
	}
	if _, err := decF64([]byte{1, 2, 3}); err == nil {
		t.Fatal("short float value: err = nil")
	}
	if _, err := decBool([]byte{2}); err == nil {
		t.Fatal("out-of-range bool value: err = nil")
	}
	if _, err := decF64Packed(make([]byte, 12)); err == nil {
		t.Fatal("ragged packed floats: err = nil")
	}
}
