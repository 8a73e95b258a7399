package tlv

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/campaign"
)

// TestAppendRecordByteIdentity pins the in-place framing rewrite to the
// old scratch-buffer composition: beginFrame + direct payload encode +
// finishFrame must produce exactly AppendFrame(AppendRecordPayload)
// for every record shape.
func TestAppendRecordByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		rec := randRecord(rng)
		got := AppendRecord(nil, &rec)
		want := AppendFrame(nil, AppendRecordPayload(nil, &rec))
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: in-place frame differs from composed frame\n got %x\nwant %x", i, got, want)
		}
	}
}

// TestAppendEnvelopeByteIdentity is the same pin for the store
// envelope, over every state shape (config, slicing, summaries, cells,
// packed samples). Both sides run the same nested encoders, so the
// nested bytes themselves are pinned by TestFrameBytesGolden.
func TestAppendEnvelopeByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		st := randResultState(rng)
		got := AppendEnvelope(nil, "id-42", &st)
		want := AppendFrame(nil, AppendEnvelopePayload(nil, "id-42", &st))
		if !bytes.Equal(got, want) {
			t.Fatalf("envelope %d: in-place frame differs from composed frame", i)
		}
	}
}

// TestAppendRecordZeroAllocWarm: with a capacity-sufficient dst the
// whole frame encode must not allocate — the contract the hotpath
// annotations, the escape baseline and the CI -benchmem gate enforce.
func TestAppendRecordZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rec := randRecord(rng)
	dst := AppendRecord(nil, &rec)
	allocs := testing.AllocsPerRun(100, func() {
		dst = AppendRecord(dst[:0], &rec)
	})
	if allocs != 0 {
		t.Fatalf("warm AppendRecord allocates %.1f times/op, want 0", allocs)
	}
}

// BenchmarkHotAppendRecord measures the steady-state record encode: a
// reused buffer, one frame per op. CI's bench job records the -benchmem
// output in BENCH.json and fails on allocs/op > 0.
func BenchmarkHotAppendRecord(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rec := randRecord(rng)
	dst := AppendRecord(nil, &rec)
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendRecord(dst[:0], &rec)
	}
}

// BenchmarkHotAppendEnvelope measures the steady-state store-envelope
// encode with a reused buffer.
func BenchmarkHotAppendEnvelope(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	st := randResultState(rng)
	dst := AppendEnvelope(nil, "bench-id", &st)
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendEnvelope(dst[:0], "bench-id", &st)
	}
}

// BenchmarkHotAppendEnvelopeFull measures the store envelope of a real
// full campaign result (seed 1, ~51 KB with raw samples) with a reused
// buffer: every cell's length prefix and the result's widen past one
// byte, so this is the finishNested shift path at its largest.
func BenchmarkHotAppendEnvelopeFull(b *testing.B) {
	res, err := campaign.Run(campaign.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	st := res.State(false)
	dst := AppendEnvelope(nil, "bench-id", &st)
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendEnvelope(dst[:0], "bench-id", &st)
	}
}

// BenchmarkHotParseFrame measures the zero-copy frame parse (payload
// aliases the input; the CRC dominates).
func BenchmarkHotParseFrame(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	rec := randRecord(rng)
	frame := AppendRecord(nil, &rec)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}
