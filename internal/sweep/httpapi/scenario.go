package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/sweep"
	"repro/internal/sweep/tlv"
)

// memoGeneration is how many distinct /v1/scenario bodies one
// generation of a ScenarioMemo holds. A memo keeps two generations, so
// it never holds more than twice this many.
const memoGeneration = 1024

// maxMemoBody is the longest body a ScenarioMemo keeps. Real axes
// bodies run to a few hundred bytes; a longer one (padding, whitespace)
// is resolved on every request and never kept, so the memo's keys
// never hold more than 2 × memoGeneration × maxMemoBody bytes (8 MiB).
const maxMemoBody = 4 << 10

// Header values shared by every answer and backend hop. net/http
// copies a response's header values before it writes them, and these
// slices are clipped, so an append by anyone else copies: assigning
// one straight into a header map is safe and allocates nothing.
var (
	varyAccept = []string{"Accept"}
	verdicts   = [2][]string{{"miss"}, {"hit"}}
	mediaTypes = [2][]string{
		sweep.EncodingJSON: {"application/json"},
		sweep.EncodingTLV:  {tlv.MediaType},
	}
)

// ScenarioMemo resolves /v1/scenario bodies, once per distinct byte
// string: a repeated body costs one map index under a mutex and
// allocates nothing. It holds two generations of up to memoGeneration
// bodies each; when the current one fills it becomes the previous one,
// and a body found only in the previous one moves back to the current.
// Bodies that fail to resolve, and bodies longer than maxMemoBody, are
// never kept, so every error answer is built afresh and the memo's
// bytes are bounded as well as its entries. Each daemon keeps its own;
// the zero value is ready.
type ScenarioMemo struct {
	mu        sync.Mutex
	cur, prev map[string]*ScenarioRequest
}

// ScenarioRequest is one resolved /v1/scenario body. It is shared by
// every request that sends the same bytes and is read-only once built.
type ScenarioRequest struct {
	// Scenario is what the body's axes resolve to.
	Scenario sweep.Scenario

	key   string     // the body, as the memo keys it; empty if not kept
	axes  sweep.Axes // as decoded, for AxesJSON
	etags [2]string  // indexed by sweep.Encoding

	axesOnce sync.Once
	axesJSON []byte
	axesErr  error
}

// ETag is the strong entity tag of the scenario's /v1/scenario body in
// enc. The JSON tag is the quoted ID, as every sweepd has answered; a
// TLV frame's carries a ".tlv" suffix, so a validator held for one
// encoding never earns a 304 for the other.
func (q *ScenarioRequest) ETag(enc sweep.Encoding) string { return q.etags[enc] }

// AxesJSON is the body a routing layer forwards: the decoded axes
// encoded again, so every phrasing of one scenario reaches a backend as
// the same bytes. It is built on first use; the bytes are shared.
func (q *ScenarioRequest) AxesJSON() ([]byte, error) {
	q.axesOnce.Do(func() { q.axesJSON, q.axesErr = json.Marshal(q.axes) })
	return q.axesJSON, q.axesErr
}

// Parse reads a /v1/scenario body and resolves it: a body this memo
// has kept answers from the memo, any other is decoded strictly (no
// unknown fields) and resolved to its scenario. On failure it answers
// 400 itself, as Decode and a bad axis always have, and reports false.
// The whole body is read first (see readBody).
func (m *ScenarioMemo) Parse(w http.ResponseWriter, r *http.Request) (*ScenarioRequest, bool) {
	buf, ok := readBody(w, r)
	if !ok {
		return nil, false
	}
	defer putBody(buf)
	body := buf.Bytes()
	keep := len(body) <= maxMemoBody
	if keep {
		m.mu.Lock()
		q := m.lookupLocked(body)
		m.mu.Unlock()
		if q != nil {
			return q, true
		}
	}

	var ax sweep.Axes
	if err := decodeStrict(bytes.NewReader(body), &ax); err != nil {
		badBody(w, err)
		return nil, false
	}
	sc, err := ax.Scenario()
	if err != nil {
		Error(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	q := &ScenarioRequest{
		Scenario: sc,
		axes:     ax,
		etags: [2]string{
			sweep.EncodingJSON: `"` + sc.ID + `"`,
			sweep.EncodingTLV:  `"` + sc.ID + `.tlv"`,
		},
	}
	if !keep {
		return q, true
	}
	q.key = string(body)
	m.mu.Lock()
	if prior := m.lookupLocked(body); prior != nil {
		q = prior // a concurrent request resolved the same bytes first
	} else {
		m.putLocked(q)
	}
	m.mu.Unlock()
	return q, true
}

// lookupLocked finds body in either generation, moving a body found
// only in the previous one into the current one.
func (m *ScenarioMemo) lookupLocked(body []byte) *ScenarioRequest {
	if q := m.cur[string(body)]; q != nil {
		return q
	}
	q := m.prev[string(body)]
	if q != nil {
		m.putLocked(q)
	}
	return q
}

// putLocked adds q to the current generation, first retiring it to the
// previous one when it is full.
func (m *ScenarioMemo) putLocked(q *ScenarioRequest) {
	if len(m.cur) >= memoGeneration {
		m.prev, m.cur = m.cur, nil
	}
	if m.cur == nil {
		m.cur = make(map[string]*ScenarioRequest)
	}
	m.cur[q.key] = q
}

// ScenarioHeaders sets what every /v1/scenario answer carries, 304 or
// 200: Vary: Accept, q's ETag in enc, and a hit or miss verdict under
// verdictKey, which must be in canonical form. The values are shared,
// so only the header map's own growth allocates.
func ScenarioHeaders(h http.Header, q *ScenarioRequest, enc sweep.Encoding, verdictKey string, hit bool) {
	h["Vary"] = varyAccept
	h["Etag"] = q.etags[enc : enc+1 : enc+1]
	if hit {
		h[verdictKey] = verdicts[1]
	} else {
		h[verdictKey] = verdicts[0]
	}
}

// SetMediaType sets header key, in canonical form, to the media type
// of a record in enc: a /v1/scenario answer's Content-Type, or a
// backend hop's Content-Type and Accept.
func SetMediaType(h http.Header, key string, enc sweep.Encoding) {
	h[key] = mediaTypes[enc]
}

// WriteScenario answers 200 with one record in enc.
func WriteScenario(w http.ResponseWriter, enc sweep.Encoding, rec []byte) {
	SetMediaType(w.Header(), "Content-Type", enc)
	w.Write(rec)
}
