//go:build !race

// Under the race detector sync.Pool drops items at random, so the
// allocations of a read through the body pool are not fixed there.

package httpapi

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// body is a rewindable request body: resetting it allocates nothing,
// so a test can count what Parse alone allocates.
type body struct{ bytes.Reader }

func (*body) Close() error { return nil }

var sink io.ReadCloser

// TestScenarioMemoHitAllocs: a memo hit allocates no more than the body
// bound (http.MaxBytesReader) it reads through.
func TestScenarioMemoHitAllocs(t *testing.T) {
	const b = `{"seed":7,"local_peering":true,"target_cells":["B2","C4"]}`
	var m ScenarioMemo
	w := httptest.NewRecorder()
	q1, ok := m.Parse(w, scenarioRequest(b))
	if !ok {
		t.Fatalf("Parse(%s) refused: %s", b, w.Body)
	}
	raw := []byte(b)
	rc := new(body)
	r := scenarioRequest("")
	r.Body = rc
	bound := testing.AllocsPerRun(100, func() {
		sink = http.MaxBytesReader(w, rc, MaxBodyBytes)
	})
	got := testing.AllocsPerRun(100, func() {
		rc.Reset(raw)
		if q, ok := m.Parse(w, r); !ok || q != q1 {
			t.Fatal("hit missed")
		}
	})
	if got > bound {
		t.Fatalf("a memo hit allocates %v times, MaxBytesReader alone %v", got, bound)
	}
}
