package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/sweep/serve"
	"repro/internal/sweep/store"
)

// fastRunner avoids real simulations where the test only cares about
// bytes moving: campaign.Run on a fixed tiny config, re-keyed per call
// by the cache (results are cached by scenario ID, so each distinct
// seed still produces a distinct record).
func fastRunner() func(campaign.Config) (*campaign.Result, error) {
	return func(cfg campaign.Config) (*campaign.Result, error) {
		return campaign.Run(cfg)
	}
}

// assertConverged demands the replica's store is byte-identical to the
// writer's: same manifest, same segment bytes, and every writer record
// Get-able on the replica.
func assertConverged(t *testing.T, writer, replica *store.Store) {
	t.Helper()
	wGen, wSegs := writer.Manifest()
	_, rSegs := replica.Manifest()
	if len(wSegs) != len(rSegs) {
		t.Fatalf("manifest sizes differ: writer %d, replica %d", len(wSegs), len(rSegs))
	}
	for i, si := range wSegs {
		if rSegs[i] != si {
			t.Fatalf("manifest entry %d differs: writer %+v, replica %+v", i, si, rSegs[i])
		}
		wb, err := writer.ReadSegment(si.Shard, si.Seg)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := replica.ReadSegment(si.Shard, si.Seg)
		if err != nil || !bytes.Equal(wb, rb) {
			t.Fatalf("segment %s/%d not byte-identical after convergence (gen %d): %v",
				si.Shard, si.Seg, wGen, err)
		}
	}
}

// TestReplicaConvergesOnLiveWriter is the replication property test:
// a replica's pull loop races a writer that keeps simulating new
// scenarios (rotating segments as it goes) and compacting underneath
// it; when the dust settles, one final sync leaves the replica
// byte-identical. Run under -race this also proves the pull loop,
// the serve handlers and the store mutate safely together.
func TestReplicaConvergesOnLiveWriter(t *testing.T) {
	writer, err := serve.New(serve.Options{
		CacheDir:     t.TempDir(),
		SimWorkers:   4,
		SegmentBytes: 2048, // force rotation every record or two
		Runner:       fastRunner(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	wts := httptest.NewServer(writer)
	defer wts.Close()

	rdir := t.TempDir()
	replica, err := store.Open(rdir, store.Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	rep, err := NewReplicator(ReplicatorOptions{
		Writer:   wts.URL,
		Store:    replica,
		Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()

	// The writer keeps working while the replica pulls: simulate 24
	// scenarios, compacting the store every few.
	const scenarios = 24
	for i := 0; i < scenarios; i++ {
		resp, err := http.Post(wts.URL+"/v1/scenario", "application/json",
			strings.NewReader(fmt.Sprintf(`{"seed":%d}`, 400+i)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d", 400+i, resp.StatusCode)
		}
		if i%7 == 3 {
			if _, err := writer.Store().Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep.Stop()

	// One clean sync after the writer quiesces ends the chase.
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, writer.Store(), replica)
	st := rep.Stats()
	if st.SegmentsBehind != 0 || st.Cursor != st.WriterGen {
		t.Fatalf("stats disagree with convergence: %+v", st)
	}
	if st.SegmentsShipped == 0 || st.BytesShipped == 0 {
		t.Fatalf("nothing shipped? %+v", st)
	}

	// The cursor short-circuit: another sync against the idle writer
	// moves nothing.
	shipped := st.SegmentsShipped
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := rep.Stats().SegmentsShipped; got != shipped {
		t.Fatalf("idle sync shipped %d more segments", got-shipped)
	}
}

// truncatingTransport truncates the body of the first N segment-file
// downloads mid-record, simulating a connection cut partway through a
// shipment.
type truncatingTransport struct {
	base      http.RoundTripper
	remaining atomic.Int64
}

func (tt *truncatingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := tt.base.RoundTrip(req)
	if err != nil || !strings.Contains(req.URL.Path, "/v1/segments/file") {
		return resp, err
	}
	if tt.remaining.Add(-1) < 0 {
		return resp, nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	cut := len(data) / 2
	resp.Body = io.NopCloser(bytes.NewReader(data[:cut]))
	resp.ContentLength = int64(cut)
	resp.Header.Set("Content-Length", fmt.Sprint(cut))
	return resp, nil
}

// TestReplicatorRecoversFromPartialDownloadAndTornCursor: a download
// cut mid-segment must not be installed as if complete — the sync
// fails, the cursor stays put, and the next clean cycle heals. A
// garbage cursor file likewise degrades to a full (correct) resync.
func TestReplicatorRecoversFromPartialDownloadAndTornCursor(t *testing.T) {
	writer, err := serve.New(serve.Options{
		CacheDir:   t.TempDir(),
		SimWorkers: 2,
		Runner:     fastRunner(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	wts := httptest.NewServer(writer)
	defer wts.Close()
	for _, seed := range []uint64{431, 432} {
		resp, err := http.Post(wts.URL+"/v1/scenario", "application/json",
			strings.NewReader(fmt.Sprintf(`{"seed":%d}`, seed)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	rdir := t.TempDir()
	replica, err := store.Open(rdir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	tt := &truncatingTransport{base: http.DefaultTransport}
	tt.remaining.Store(1)
	rep, err := NewReplicator(ReplicatorOptions{
		Writer: wts.URL,
		Store:  replica,
		Client: &http.Client{Transport: tt},
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := rep.SyncOnce(context.Background()); err == nil {
		t.Fatal("sync with a truncated download must fail, not install partial bytes")
	}
	st := rep.Stats()
	if st.SyncErrors != 1 || st.Cursor != 0 || st.LastError == "" {
		t.Fatalf("failed sync not accounted: %+v", st)
	}

	// Transport is clean now: the retry heals everything.
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, writer.Store(), replica)
	if st := rep.Stats(); st.LastError != "" || st.SegmentsBehind != 0 {
		t.Fatalf("healed sync left error state: %+v", st)
	}

	// Tear the cursor file and rebuild the replicator: it must come up
	// with cursor zero and converge again, not refuse to start.
	if err := os.WriteFile(filepath.Join(rdir, "follow-cursor.json"), []byte(`{"curso`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep2, err := NewReplicator(ReplicatorOptions{Writer: wts.URL, Store: replica})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep2.Stats().Cursor; got != 0 {
		t.Fatalf("torn cursor loaded as %d, want 0", got)
	}
	if err := rep2.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, writer.Store(), replica)
	// And the rewritten cursor file is valid again.
	rep3, err := NewReplicator(ReplicatorOptions{Writer: wts.URL, Store: replica})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep3.Stats().Cursor, rep2.Stats().Cursor; got != want || got == 0 {
		t.Fatalf("persisted cursor %d, want %d (non-zero)", got, want)
	}
}

// TestReplicaServesIngestedRecordsAsHits: the end-to-end follower
// shape — a store-only serve layer over a followed store answers warm
// GETs without a single simulation, and its statsz carries the
// replication lag once the hook is installed.
func TestReplicaServesIngestedRecordsAsHits(t *testing.T) {
	writer, err := serve.New(serve.Options{CacheDir: t.TempDir(), SimWorkers: 2, Runner: fastRunner()})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	wts := httptest.NewServer(writer)
	defer wts.Close()
	resp, err := http.Post(wts.URL+"/v1/scenario", "application/json", strings.NewReader(`{"seed":441}`))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	replica, err := serve.New(serve.Options{CacheDir: t.TempDir(), QueueDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	rep, err := NewReplicator(ReplicatorOptions{Writer: wts.URL, Store: replica.Store()})
	if err != nil {
		t.Fatal(err)
	}
	replica.SetReplicationStats(func() any { return rep.Stats() })
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(replica)
	defer rts.Close()

	r2, err := http.Post(rts.URL+"/v1/scenario", "application/json", strings.NewReader(`{"seed":441}`))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("replica hit: status %d, bytes equal %v", r2.StatusCode, bytes.Equal(got, want))
	}
	if r2.Header.Get("X-Sweepd-Cache") != "hit" {
		t.Fatal("replicated record did not serve as a hit")
	}

	sresp, err := http.Get(rts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Replication *ReplicationStats `json:"replication"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Replication == nil || st.Replication.Writer != wts.URL || st.Replication.SegmentsBehind != 0 {
		t.Fatalf("replica statsz replication block wrong: %+v", st.Replication)
	}
}

// copyGoldenV2 copies the store's checked-in v2 JSONL layout into a
// fresh directory.
func copyGoldenV2(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("..", "store", "testdata", "v2-layout"))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestUpgradedV2CopiesAreAlreadyConverged: a writer and a follower
// sweepd opened on separate copies of one v2 directory transcode it to
// identical bytes, so the follower's first sync ships and drops nothing.
func TestUpgradedV2CopiesAreAlreadyConverged(t *testing.T) {
	writer, err := serve.New(serve.Options{CacheDir: copyGoldenV2(t), SimWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	wts := httptest.NewServer(writer)
	defer wts.Close()
	replica, err := serve.New(serve.Options{CacheDir: copyGoldenV2(t), QueueDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	rep, err := NewReplicator(ReplicatorOptions{Writer: wts.URL, Store: replica.Store()})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := rep.Stats(); st.SegmentsShipped != 0 || st.SegmentsDropped != 0 || st.SyncErrors != 0 {
		t.Fatalf("first sync between upgraded copies moved segments: %+v", st)
	}
	assertConverged(t, writer.Store(), replica.Store())
	if _, segs := writer.Store().Manifest(); len(segs) != 3 {
		t.Fatalf("upgraded golden layout lists %d segments, want 3", len(segs))
	}
}

// TestFollowerRefusesWriterJSONLSegment: a writer from before the v2
// upgrade lists a JSONL segment without a format and serves it for an
// empty ?format=. The follower must fail the sync loudly rather than
// install JSONL bytes as a TLV segment.
func TestFollowerRefusesWriterJSONLSegment(t *testing.T) {
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/segments" {
			fmt.Fprint(w, `{"generation":7,"segments":[{"shard":"aa","seg":0,"size":3}]}`)
			return
		}
		fmt.Fprint(w, "{}\n")
	}))
	defer old.Close()
	replica, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	rep, err := NewReplicator(ReplicatorOptions{Writer: old.URL, Store: replica})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.SyncOnce(context.Background()); !errors.Is(err, store.ErrBadSegmentRef) {
		t.Fatalf("sync against a JSONL segment: %v, want ErrBadSegmentRef", err)
	}
	if st := rep.Stats(); st.SyncErrors != 1 || st.SegmentsShipped != 0 || st.Cursor != 0 {
		t.Fatalf("refused sync recorded as progress: %+v", st)
	}
	if _, segs := replica.Manifest(); len(segs) != 0 {
		t.Fatalf("follower installed %d segments from a JSONL writer", len(segs))
	}
}
