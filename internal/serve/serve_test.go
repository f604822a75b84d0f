package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	sqe "repro"
	"repro/internal/index"
)

var (
	envOnce sync.Once
	env     *sqe.DemoEnv
)

// testServer builds a Server over a shared DemoSmall engine (with the
// serving options on: cache + a two-worker pool) plus a fresh demo
// query to drive it with.
func testServer(t *testing.T, cfg Config) (*Server, sqe.DemoQuery) {
	t.Helper()
	envOnce.Do(func() { env = sqe.MustGenerateDemo(sqe.DemoSmall) })
	if cfg.Engine == nil {
		cfg.Engine = sqe.NewEngine(env.Engine.Graph(), env.Engine.Index(),
			sqe.WithSQECWorkers(2), sqe.WithExpansionCache(256))
	}
	return New(cfg), env.Queries[0]
}

func do(t *testing.T, s *Server, method, target string, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func entitiesParam(q sqe.DemoQuery) string {
	return strings.Join(q.EntityTitles, ",")
}

func decodeSearch(t *testing.T, w *httptest.ResponseRecorder) searchResponse {
	t.Helper()
	var resp searchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response JSON: %v\nbody: %s", err, w.Body.String())
	}
	return resp
}

func TestSearchEndpoint(t *testing.T) {
	s, q := testServer(t, Config{})
	w := do(t, s, http.MethodGet, "/v1/search?q="+paramEscape(q.Text)+"&entities="+paramEscape(entitiesParam(q))+"&k=10", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeSearch(t, w)
	if len(resp.Results) == 0 {
		t.Fatal("no results")
	}
	if resp.K != 10 || resp.Results[0].Rank != 1 {
		t.Errorf("bad envelope: %+v", resp)
	}
	// The GET answer must match the engine called directly.
	want, err := s.cfg.Engine.Do(context.Background(),
		sqe.SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range want.Results {
		if resp.Results[i].Name != r.Name {
			t.Fatalf("rank %d: got %q want %q", i+1, resp.Results[i].Name, r.Name)
		}
	}
	// POST JSON body form.
	body, _ := json.Marshal(request{Query: q.Text, Entities: q.EntityTitles, K: 10})
	w = do(t, s, http.MethodPost, "/v1/search", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("POST status %d: %s", w.Code, w.Body.String())
	}
	if got := decodeSearch(t, w); len(got.Results) != len(resp.Results) || got.Results[0].Name != resp.Results[0].Name {
		t.Error("POST JSON answer diverges from GET answer")
	}
	// Single motif set.
	w = do(t, s, http.MethodGet, "/v1/search?q="+paramEscape(q.Text)+"&entities="+paramEscape(entitiesParam(q))+"&set=T", "")
	if w.Code != http.StatusOK {
		t.Fatalf("set=T status %d: %s", w.Code, w.Body.String())
	}
	if resp := decodeSearch(t, w); len(resp.Results) == 0 || resp.Set != "T" {
		t.Errorf("set=T: %+v", resp)
	}
}

func TestBaselineEndpoint(t *testing.T) {
	s, q := testServer(t, Config{})
	w := do(t, s, http.MethodGet, "/v1/baseline?q="+paramEscape(q.Text)+"&k=5", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp := decodeSearch(t, w); len(resp.Results) == 0 {
		t.Fatal("baseline returned nothing")
	}
}

func TestExpandEndpoint(t *testing.T) {
	s, q := testServer(t, Config{})
	w := do(t, s, http.MethodGet, "/v1/expand?q="+paramEscape(q.Text)+"&entities="+paramEscape(entitiesParam(q)), "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp expandResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(resp.QueryNodeTitles) != len(q.EntityTitles) {
		t.Errorf("query nodes %v != entities %v", resp.QueryNodeTitles, q.EntityTitles)
	}
	if resp.Set != "TS" {
		t.Errorf("default set should be TS, got %q", resp.Set)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, q := testServer(t, Config{})
	if w := do(t, s, http.MethodGet, "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	// Serve one query so the pipeline counters are non-zero.
	if w := do(t, s, http.MethodGet, "/v1/search?q="+paramEscape(q.Text)+"&entities="+paramEscape(entitiesParam(q)), ""); w.Code != http.StatusOK {
		t.Fatalf("search status %d: %s", w.Code, w.Body.String())
	}
	w := do(t, s, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	body := w.Body.String()
	for _, m := range []string{
		"sqe_http_requests_total{endpoint=\"search\"} 1",
		"sqe_pipeline_queries_total 1",
		"sqe_pipeline_retrievals_total 1", // SQE_C = one pass over a single index
		"sqe_pipeline_stage_seconds_total{stage=\"retrieval\"}",
		"sqe_search_candidates_examined_total",
		"sqe_search_docs_skipped_total",
		"sqe_search_bound_evaluations_total",
		"sqe_search_blocks_decoded_total",
		"sqe_search_blocks_total",
		"sqe_expansion_cache_misses_total",
	} {
		if !strings.Contains(body, m) {
			t.Errorf("metrics output missing %q", m)
		}
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type %q", ct)
	}
}

// TestShardMetrics: a sharded engine surfaces per-shard evaluator
// counters in /metrics; baseline requests contribute pipeline stats too
// (they go through the same Do path as /search). An SQE_C request on the
// 4-shard engine is one evaluator pass, like the baseline's.
func TestShardMetrics(t *testing.T) {
	envOnce.Do(func() { env = sqe.MustGenerateDemo(sqe.DemoSmall) })
	eng := sqe.NewEngine(env.Engine.Graph(), env.Engine.Index(), sqe.WithShards(4))
	s, q := testServer(t, Config{Engine: eng})
	if w := do(t, s, http.MethodGet, "/v1/search?q="+paramEscape(q.Text)+"&entities="+paramEscape(entitiesParam(q)), ""); w.Code != http.StatusOK {
		t.Fatalf("search status %d: %s", w.Code, w.Body.String())
	}
	if w := do(t, s, http.MethodGet, "/v1/baseline?q="+paramEscape(q.Text), ""); w.Code != http.StatusOK {
		t.Fatalf("baseline status %d: %s", w.Code, w.Body.String())
	}
	body := do(t, s, http.MethodGet, "/metrics", "").Body.String()
	for _, m := range []string{
		"sqe_search_shard_seconds_total{shard=\"0\"}",
		"sqe_search_shard_seconds_total{shard=\"3\"}",
		"sqe_search_shard_candidates_examined_total{shard=\"0\"}",
		"sqe_search_shard_postings_advanced_total{shard=\"0\"}",
		"sqe_search_shard_docs_skipped_total{shard=\"0\"}",
		"sqe_pipeline_queries_total 2", // search + baseline both counted
		"sqe_pipeline_retrievals_total 2",
	} {
		if !strings.Contains(body, m) {
			t.Errorf("metrics output missing %q\n%s", m, body)
		}
	}
	ps := s.Pipeline()
	if len(ps.Search.Shards) != 4 {
		t.Fatalf("aggregated shard stats = %d entries, want 4", len(ps.Search.Shards))
	}
}

// TestPositionalMemoMetrics: /metrics counts how many phrase/window
// leaves retrieval found resolved in the index's memo and how many it
// had to intersect, and how many v2 blocks it decoded. Over
// a fresh index the first request pays the misses; an identical second
// one pays none and finds every positional leaf of the query resolved —
// on a monolithic engine and on in-process shards alike.
func TestPositionalMemoMetrics(t *testing.T) {
	envOnce.Do(func() { env = sqe.MustGenerateDemo(sqe.DemoSmall) })
	for _, shards := range []int{1, 2} {
		path := filepath.Join(t.TempDir(), "ix.v2")
		if err := index.WriteFile(path, env.Engine.Index(), index.FormatV2); err != nil {
			t.Fatal(err)
		}
		ix, err := index.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		s, q := testServer(t, Config{Engine: sqe.NewEngine(env.Engine.Graph(), ix, sqe.WithShards(shards))})
		target := "/v1/search?q=" + paramEscape(q.Text) + "&entities=" + paramEscape(entitiesParam(q))
		var hits, misses [2]float64
		for i := range hits {
			if w := do(t, s, http.MethodGet, target, ""); w.Code != http.StatusOK {
				t.Fatalf("shards=%d: search status %d: %s", shards, w.Code, w.Body.String())
			}
			hits[i] = metricValue(t, s, "sqe_search_positional_hits_total")
			misses[i] = metricValue(t, s, "sqe_search_positional_misses_total")
		}
		if misses[0] == 0 {
			t.Errorf("shards=%d: the first request over a fresh index intersected nothing", shards)
		}
		if misses[1] != misses[0] {
			t.Errorf("shards=%d: the repeated request missed %v times", shards, misses[1]-misses[0])
		}
		if leaves := hits[0] + misses[0]; hits[1]-hits[0] != leaves {
			t.Errorf("shards=%d: the repeated request hit %v of %v positional leaves", shards, hits[1]-hits[0], leaves)
		}
		// The v2 file's term leaves stream, and so do those of the v2
		// images in-process shards are cut into: the block counters reach
		// /metrics either way.
		decoded, total := metricValue(t, s, "sqe_search_blocks_decoded_total"), metricValue(t, s, "sqe_search_blocks_total")
		if decoded <= 0 || decoded > total {
			t.Errorf("shards=%d: streaming cursors decoded %v of %v blocks", shards, decoded, total)
		}
	}
}

func TestBadRequests(t *testing.T) {
	s, q := testServer(t, Config{})
	cases := []struct {
		name, target string
	}{
		{"missing query", "/v1/search"},
		{"bad k", "/v1/search?q=x&k=abc"},
		{"unknown set", "/v1/search?q=x&set=XYZ"},
		{"unknown entity", "/v1/search?q=x&entities=No+Such+Article"},
	}
	for _, c := range cases {
		if w := do(t, s, http.MethodGet, c.target, ""); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, w.Code)
		}
	}
	if w := do(t, s, http.MethodDelete, "/v1/search?q="+paramEscape(q.Text), ""); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status %d, want 405", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/v1/search?q=x", "{not json"); w.Code != http.StatusBadRequest {
		t.Errorf("bad JSON body: status %d, want 400", w.Code)
	}
	// Only the versioned surface is routed.
	for _, p := range []string{"/search", "/expand", "/baseline"} {
		if w := do(t, s, http.MethodGet, p+"?q="+paramEscape(q.Text), ""); w.Code != http.StatusNotFound {
			t.Errorf("unversioned %s: status %d, want 404", p, w.Code)
		}
	}
}

func TestMaxInFlightSheds(t *testing.T) {
	s, q := testServer(t, Config{MaxInFlight: 1})
	// Occupy the only slot directly, then any work request must shed.
	s.limiter <- struct{}{}
	defer func() { <-s.limiter }()
	w := do(t, s, http.MethodGet, "/v1/search?q="+paramEscape(q.Text)+"&entities="+paramEscape(entitiesParam(q)), "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.shed.Load() != 1 {
		t.Errorf("shed counter = %d, want 1", s.shed.Load())
	}
	// Health stays green under shedding — it bypasses the limiter.
	if w := do(t, s, http.MethodGet, "/healthz", ""); w.Code != http.StatusOK {
		t.Errorf("healthz sheds: status %d", w.Code)
	}
}

func TestRequestTimeout(t *testing.T) {
	s, q := testServer(t, Config{Timeout: time.Nanosecond})
	w := do(t, s, http.MethodGet, "/v1/search?q="+paramEscape(q.Text)+"&entities="+paramEscape(entitiesParam(q)), "")
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
	if s.timeouts.Load() == 0 {
		t.Error("timeout counter not incremented")
	}
}

// paramEscape is url.QueryEscape without importing net/url in every call
// site above.
func paramEscape(s string) string {
	return strings.ReplaceAll(strings.ReplaceAll(s, "&", "%26"), " ", "+")
}
