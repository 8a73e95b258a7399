package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/sweep"
)

func scenarioRequest(b string) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/scenario", strings.NewReader(b))
}

// direct resolves b as the handlers did before the memo: a strict
// decode, then Axes.Scenario.
func direct(t *testing.T, b string) (sweep.Axes, sweep.Scenario) {
	t.Helper()
	var ax sweep.Axes
	dec := json.NewDecoder(strings.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ax); err != nil {
		t.Fatalf("decode %s: %v", b, err)
	}
	sc, err := ax.Scenario()
	if err != nil {
		t.Fatalf("resolve %s: %v", b, err)
	}
	return ax, sc
}

// checkResolved compares a memo entry with a direct resolve of b.
func checkResolved(q *ScenarioRequest, ax sweep.Axes, sc sweep.Scenario) error {
	if !reflect.DeepEqual(q.Scenario, sc) {
		return fmt.Errorf("scenario %+v, want %+v", q.Scenario, sc)
	}
	if q.ETag(sweep.EncodingJSON) != `"`+sc.ID+`"` || q.ETag(sweep.EncodingTLV) != `"`+sc.ID+`.tlv"` {
		return fmt.Errorf("ETags %q, %q for %s", q.ETag(sweep.EncodingJSON), q.ETag(sweep.EncodingTLV), sc.ID)
	}
	want, err := json.Marshal(ax)
	if err != nil {
		return err
	}
	if got, err := q.AxesJSON(); err != nil || !bytes.Equal(got, want) {
		return fmt.Errorf("AxesJSON %s (%v), want %s", got, err, want)
	}
	return nil
}

func (m *ScenarioMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.prev)
}

// TestScenarioMemoHit: the same bytes resolve to the same entry, equal
// to a direct decode; different bytes get their own.
func TestScenarioMemoHit(t *testing.T) {
	const b = `{"seed":7,"local_peering":true,"target_cells":["B2","C4"]}`
	var m ScenarioMemo
	w := httptest.NewRecorder()
	q1, ok := m.Parse(w, scenarioRequest(b))
	if !ok {
		t.Fatalf("Parse(%s) refused: %s", b, w.Body)
	}
	q2, ok := m.Parse(w, scenarioRequest(b))
	if !ok || q2 != q1 {
		t.Fatalf("second Parse of the same bytes gave %p (ok %v), want %p", q2, ok, q1)
	}
	ax, sc := direct(t, b)
	if err := checkResolved(q1, ax, sc); err != nil {
		t.Fatal(err)
	}
	if q3, _ := m.Parse(w, scenarioRequest(b+"\n")); q3 == q1 {
		t.Fatal("different bytes shared an entry")
	}

}

// TestScenarioMemoBounded: the memo keeps two generations, so after
// three generations' worth of distinct bodies it holds at most two,
// the newest ones; a body read again moves to the newest generation.
func TestScenarioMemoBounded(t *testing.T) {
	var m ScenarioMemo
	w := httptest.NewRecorder()
	parse := func(i int) *ScenarioRequest {
		t.Helper()
		q, ok := m.Parse(w, scenarioRequest(fmt.Sprintf(`{"seed":%d}`, i)))
		if !ok {
			t.Fatalf("seed %d refused", i)
		}
		return q
	}
	hot := parse(0)
	for i := 1; i < 3*memoGeneration; i++ {
		if i%memoGeneration == 0 && parse(0) != hot {
			t.Fatalf("body read again after %d others lost its entry", i)
		}
		parse(i)
	}
	if n := m.len(); n > 2*memoGeneration {
		t.Fatalf("memo holds %d entries after %d distinct bodies, want <= %d", n, 3*memoGeneration, 2*memoGeneration)
	}
	last := parse(3*memoGeneration - 1)
	if parse(3*memoGeneration-1) != last || parse(0) != hot {
		t.Fatal("recent bodies were not kept")
	}
}

// TestScenarioMemoKeepsNoLongBodies: a valid body longer than
// maxMemoBody is answered like any other but never kept, so padding
// cannot fill the memo's keys with megabytes.
func TestScenarioMemoKeepsNoLongBodies(t *testing.T) {
	var m ScenarioMemo
	b := `{"seed":1,` + strings.Repeat(" ", maxMemoBody) + `"edge_upf":true}`
	ax, sc := direct(t, b)
	var first *ScenarioRequest
	for i := 0; i < 2; i++ {
		w := httptest.NewRecorder()
		q, ok := m.Parse(w, scenarioRequest(b))
		if !ok {
			t.Fatalf("Parse of a %d-byte body refused: %s", len(b), w.Body)
		}
		if err := checkResolved(q, ax, sc); err != nil {
			t.Fatal(err)
		}
		if q == first {
			t.Fatal("a long body was answered from the memo")
		}
		first = q
	}
	if n := m.len(); n != 0 {
		t.Fatalf("memo kept %d long bodies", n)
	}
	short := `{"seed":1,"edge_upf":true}`
	if q, _ := m.Parse(httptest.NewRecorder(), scenarioRequest(short)); q.Scenario.ID != sc.ID || m.len() != 1 {
		t.Fatalf("short body of the same scenario: ID %s, memo holds %d; want %s, 1", q.Scenario.ID, m.len(), sc.ID)
	}
}

// TestScenarioMemoKeepsNoFailures: a body that fails to decode or
// resolve is answered afresh every time, with the same status and
// bytes, and never enters the memo.
func TestScenarioMemoKeepsNoFailures(t *testing.T) {
	var m ScenarioMemo
	for _, b := range []string{`{"seed":1,"bogus":true}`, `not json`, `{"profile":"7G"}`, `{"seed":1}` + strings.Repeat(" ", MaxBodyBytes)} {
		var first []byte
		for i := 0; i < 2; i++ {
			w := httptest.NewRecorder()
			if _, ok := m.Parse(w, scenarioRequest(b)); ok {
				t.Fatalf("Parse(%.40q) accepted", b)
			}
			if w.Code != http.StatusBadRequest {
				t.Fatalf("Parse(%.40q): status %d, want 400", b, w.Code)
			}
			if i == 0 {
				first = w.Body.Bytes()
			} else if !bytes.Equal(w.Body.Bytes(), first) {
				t.Fatalf("Parse(%.40q) answered %s, then %s", b, first, w.Body)
			}
		}
	}
	if n := m.len(); n != 0 {
		t.Fatalf("memo kept %d failed bodies", n)
	}
}

// TestScenarioMemoConcurrent: goroutines parsing shared and private
// bodies through one memo, across generation turnovers, each get what
// a direct decode gives. Run it under -race.
func TestScenarioMemoConcurrent(t *testing.T) {
	const workers, private = 8, 200 // 8 × 200 private bodies turn the memo over
	shared := make([]string, 16)
	for i := range shared {
		shared[i] = fmt.Sprintf(`{"seed":%d,"edge_upf":%v,"target_cells":["B2","C4","E2"]}`, i, i%2 == 0)
	}
	type want struct {
		ax sweep.Axes
		sc sweep.Scenario
	}
	wants := make(map[string]want)
	bodies := append([]string(nil), shared...)
	for g := 0; g < workers; g++ {
		for i := 0; i < private; i++ {
			bodies = append(bodies, fmt.Sprintf(`{"seed":%d,"mobile_nodes":3}`, 1000+g*private+i))
		}
	}
	for _, b := range bodies {
		ax, sc := direct(t, b)
		wants[b] = want{ax, sc}
	}

	var m ScenarioMemo
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < private; i++ {
				for _, b := range []string{shared[(g+i)%len(shared)], bodies[len(shared)+g*private+i]} {
					w := httptest.NewRecorder()
					q, ok := m.Parse(w, scenarioRequest(b))
					if !ok {
						t.Errorf("Parse(%s) refused: %s", b, w.Body)
						return
					}
					if err := checkResolved(q, wants[b].ax, wants[b].sc); err != nil {
						t.Errorf("Parse(%s): %v", b, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := m.len(); n > 2*memoGeneration {
		t.Fatalf("memo holds %d entries, want <= %d", n, 2*memoGeneration)
	}
}
