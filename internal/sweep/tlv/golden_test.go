package tlv

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/campaign"
)

// TestFrameBytesGolden pins the frozen v3 bytes. The byte-identity
// tests compare two encodes of the same code, so they cannot see a
// change that shifts both sides; this digest can. It covers:
//   - 500 AppendRecord frames of randRecord (seed 99);
//   - 500 AppendEnvelope frames of randResultState (seed 77, id "id-42");
//   - the full and compact envelopes of campaign.Run seeds 1–3, whose
//     nested lengths take 2–3 uvarint bytes, the only inputs here that
//     widen a nested length prefix.
//
// The digest was computed while every nested struct still had a
// hand-kept size function that wrote its length prefix up front, so it
// also proves the backpatched prefixes equal the precomputed ones. The
// format is frozen: re-pin it never, add a field instead.
func TestFrameBytesGolden(t *testing.T) {
	const want = "6973c6ccf171623ef13a81414be58552d03b0bb1db9ec1d51b6a05a4d8aee46e"
	h := sha256.New()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		rec := randRecord(rng)
		h.Write(AppendRecord(nil, &rec))
	}
	rng = rand.New(rand.NewSource(77))
	for i := 0; i < 500; i++ {
		st := randResultState(rng)
		h.Write(AppendEnvelope(nil, "id-42", &st))
	}
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := campaign.Run(campaign.Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		id := fmt.Sprintf("seed-%d", seed)
		for _, compact := range []bool{false, true} {
			st := res.State(compact)
			h.Write(AppendEnvelope(nil, id, &st))
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("frame digest = %s, want %s: the frozen TLV bytes changed", got, want)
	}
}
