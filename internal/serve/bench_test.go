package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	sqe "repro"
	"repro/internal/analysis"
	"repro/internal/index"
	"repro/internal/kb"
	"repro/internal/wikigen"
)

// The handler benchmarks drive Server.ServeHTTP through httptest, so
// ns/op and allocs/op are one request's cost in the serving layer and
// below it, without a socket. Compare commits at -cpu 1, where ns/op is
// the request's CPU.

var (
	expandWideOnce   sync.Once
	expandWideGraph  *kb.Graph
	expandWideBodies [][]byte
)

// expandWide returns a /v1/expand server over the default world, with
// opts, and a stream of request bodies drawn as the expand-wide
// workload draws them: one to three distinct articles from the whole
// KB, the motif set cycling T, TS, S.
func expandWide(tb testing.TB, opts ...sqe.Option) (*Server, [][]byte) {
	tb.Helper()
	expandWideOnce.Do(func() {
		g := wikigen.MustGenerate(wikigen.DefaultConfig()).Graph
		expandWideGraph = g
		var titles []string
		g.Articles(func(id kb.NodeID) bool {
			titles = append(titles, g.Title(id))
			return true
		})
		rng := rand.New(rand.NewSource(1))
		sets := [3]string{"T", "TS", "S"}
		for i := 0; i < 3*len(titles); i++ {
			var ents []string
			for want := 1 + rng.Intn(3); len(ents) < want; {
				t := titles[rng.Intn(len(titles))]
				dup := false
				for _, e := range ents {
					dup = dup || e == t
				}
				if !dup {
					ents = append(ents, t)
				}
			}
			body, _ := json.Marshal(map[string]any{"query": ents[0], "entities": ents, "set": sets[i%3]})
			expandWideBodies = append(expandWideBodies, body)
		}
	})
	empty := index.NewBuilder(analysis.Standard()).Build()
	return New(Config{Engine: sqe.NewEngine(expandWideGraph, empty, opts...)}), expandWideBodies
}

// replayWriter is a ResponseWriter that keeps only the status, so a
// measured request allocates nothing on the recorder's behalf.
type replayWriter struct {
	h      http.Header
	status int
}

func (w *replayWriter) Header() http.Header         { return w.h }
func (w *replayWriter) WriteHeader(status int)      { w.status = status }
func (w *replayWriter) Write(p []byte) (int, error) { return len(p), nil }

// replayBody is a request body that can be rewound between requests.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// serveOne sends body to target on s through req, w and rb, reused
// across calls, and fails unless the reply is a 200.
func serveOne(tb testing.TB, s *Server, req *http.Request, w *replayWriter, rb *replayBody, body []byte) {
	rb.Reset(body)
	req.Body, req.ContentLength = rb, int64(len(body))
	w.status = 0
	s.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		tb.Fatalf("status %d for %s", w.status, body)
	}
}

// BenchmarkServeExpand serves the expand-wide stream with the serving
// defaults (a 4096-entry expansion cache), after one lap over it.
func BenchmarkServeExpand(b *testing.B) {
	s, bodies := expandWide(b, sqe.WithExpansionCache(4096))
	req := httptest.NewRequest(http.MethodPost, "/v1/expand", nil)
	w, rb := &replayWriter{h: http.Header{}}, &replayBody{}
	for _, body := range bodies { // rows and cache as after warm-up
		serveOne(b, s, req, w, rb, body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOne(b, s, req, w, rb, bodies[i%len(bodies)])
	}
}

// BenchmarkServeSearch serves the demo's queries with their entities
// at k = 10, as search-hot does, after one lap over them.
func BenchmarkServeSearch(b *testing.B) {
	s, _ := testServer(b, Config{})
	var bodies [][]byte
	for _, q := range env.Queries {
		body, _ := json.Marshal(map[string]any{"query": q.Text, "entities": q.EntityTitles, "k": 10})
		bodies = append(bodies, body)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/search", nil)
	w, rb := &replayWriter{h: http.Header{}}, &replayBody{}
	for _, body := range bodies {
		serveOne(b, s, req, w, rb, body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOne(b, s, req, w, rb, bodies[i%len(bodies)])
	}
}

// TestExpandHandlerAllocations is the ceiling on a warmed /v1/expand
// request's allocations, from the body read to the reply's Write, on
// the path most expand-wide requests take: an expansion-cache miss over
// warm motif rows (the server has no cache, so every request misses).
// What is left is the body's strings, the deadline, the resolved nodes,
// the expansion and its titles, and the reply.
func TestExpandHandlerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	s, bodies := expandWide(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/expand", nil)
	w, rb := &replayWriter{h: http.Header{}}, &replayBody{}
	for _, body := range bodies[:64] {
		serveOne(t, s, req, w, rb, body)
		allocs := testing.AllocsPerRun(20, func() { serveOne(t, s, req, w, rb, body) })
		if allocs > expandAllocCeiling {
			t.Errorf("%s: a warmed expand request allocates %.0f times, want <= %d", body, allocs, expandAllocCeiling)
		}
	}
}

// expandAllocCeiling is the most a draw of the first 64 allocated when
// the ceiling was set (16–24; 25–60 with reflective JSON on both sides
// and the scan per request).
const expandAllocCeiling = 24
