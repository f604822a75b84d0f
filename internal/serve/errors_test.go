package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	sqe "repro"
	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/rpc"
	"repro/internal/search"
)

// metricValue scrapes one un-labelled (or fully-labelled) counter from
// a /metrics exposition body.
func metricValue(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	body := do(t, s, http.MethodGet, "/metrics", "").Body.String()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s has unparsable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s missing from /metrics:\n%s", name, body)
	return 0
}

// TestErrorPaths is the table gate for the serving layer's failure
// mapping: every row checks the HTTP status, the JSON error envelope,
// and the counters the failure must move in /metrics.
func TestErrorPaths(t *testing.T) {
	bigBody := `{"query": "` + strings.Repeat("x", 200) + `", "k": 10}`
	cases := []struct {
		name        string
		cfg         Config
		setup       func(s *Server) func()
		method      string
		target      string
		body        string
		wantStatus  int
		wantCode    string             // typed envelope code
		wantErr     string             // substring of the error message
		wantMetrics map[string]float64 // absolute values on a fresh server
	}{
		{
			name:       "malformed JSON body",
			method:     http.MethodPost,
			target:     "/v1/search",
			body:       `{"query": "cable cars",`,
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
			wantErr:    "bad JSON body",
			wantMetrics: map[string]float64{
				`sqe_http_requests_total{endpoint="search"}`: 1,
				`sqe_http_errors_total{endpoint="search"}`:   1,
			},
		},
		{
			name:       "unknown JSON field",
			method:     http.MethodPost,
			target:     "/v1/search",
			body:       `{"query": "cable cars", "entites": ["Cable car"]}`,
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
			wantErr:    `unknown field`,
		},
		{
			name:       "wrong JSON type",
			method:     http.MethodPost,
			target:     "/v1/baseline",
			body:       `{"query": "cable cars", "k": "ten"}`,
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
			wantErr:    "bad JSON body",
			wantMetrics: map[string]float64{
				`sqe_http_errors_total{endpoint="baseline"}`: 1,
			},
		},
		{
			name:       "oversized body",
			cfg:        Config{MaxBodyBytes: 64},
			method:     http.MethodPost,
			target:     "/v1/search",
			body:       bigBody,
			wantStatus: http.StatusRequestEntityTooLarge,
			wantCode:   CodeBodyTooLarge,
			wantErr:    "request body exceeds 64 bytes",
			wantMetrics: map[string]float64{
				`sqe_http_errors_total{endpoint="search"}`: 1,
			},
		},
		{
			name:       "missing query",
			method:     http.MethodGet,
			target:     "/v1/search?k=10",
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
			wantErr:    "missing query",
		},
		{
			name:       "method not allowed",
			method:     http.MethodDelete,
			target:     "/v1/search?q=x",
			wantStatus: http.StatusMethodNotAllowed,
			wantCode:   CodeMethodNotAllowed,
			wantErr:    "use GET or POST",
		},
		{
			name: "shed at max in-flight",
			cfg:  Config{MaxInFlight: 1},
			setup: func(s *Server) func() {
				s.limiter <- struct{}{} // occupy the only slot
				return func() { <-s.limiter }
			},
			method:     http.MethodGet,
			target:     "/v1/search?q=whatever",
			wantStatus: http.StatusTooManyRequests,
			wantCode:   CodeOverloaded,
			wantErr:    "max in-flight",
			wantMetrics: map[string]float64{
				"sqe_http_shed_total":                      1,
				`sqe_http_errors_total{endpoint="search"}`: 1,
			},
		},
		{
			name:       "deadline exceeded",
			cfg:        Config{Timeout: time.Nanosecond},
			method:     http.MethodGet,
			target:     "/v1/search?q=whatever",
			wantStatus: http.StatusGatewayTimeout,
			wantCode:   CodeTimeout,
			wantErr:    "timed out",
			wantMetrics: map[string]float64{
				"sqe_http_timeouts_total": 1,
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, _ := testServer(t, c.cfg)
			if c.setup != nil {
				defer c.setup(s)()
			}
			w := do(t, s, c.method, c.target, c.body)
			if w.Code != c.wantStatus {
				t.Fatalf("status %d, want %d: %s", w.Code, c.wantStatus, w.Body.String())
			}
			if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("error response content-type %q, want JSON envelope", ct)
			}
			var env apiError
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
				t.Fatalf("error body is not the typed envelope: %v\n%s", err, w.Body.String())
			}
			if env.Err.Code != c.wantCode {
				t.Errorf("envelope code %q, want %q", env.Err.Code, c.wantCode)
			}
			if !strings.Contains(env.Err.Message, c.wantErr) {
				t.Errorf("envelope message %q does not mention %q", env.Err.Message, c.wantErr)
			}
			for name, want := range c.wantMetrics {
				if got := metricValue(t, s, name); got != want {
					t.Errorf("metric %s = %g, want %g", name, got, want)
				}
			}
		})
	}
}

// degradingServer builds a server over a sharded engine with graceful
// degradation on (no retries, so one injected fault is one event).
func degradingServer(t *testing.T) (*Server, sqe.DemoQuery) {
	t.Helper()
	loadEnv(t)
	eng := sqe.NewEngine(env.Engine.Graph(), env.Engine.Index(),
		sqe.WithShards(4),
		sqe.WithDegradation(sqe.DegradationPolicy{}))
	return testServer(t, Config{Engine: eng})
}

// TestDegradedResponseSurfacing drops exactly one shard and checks the
// full serving contract: 200, the degraded JSON field, the X-SQE-
// Degraded header, and the degradation + fault counters in /metrics.
func TestDegradedResponseSurfacing(t *testing.T) {
	defer fault.Disarm()
	s, q := degradingServer(t)
	fault.Arm(fault.NewRegistry(31).Set(fault.ShardEval, fault.Policy{ErrRate: 1, MaxFaults: 1}))

	w := do(t, s, http.MethodGet, "/v1/baseline?q="+paramEscape(q.Text)+"&k=10", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 with a partial merge: %s", w.Code, w.Body.String())
	}
	resp := decodeSearch(t, w)
	if len(resp.Results) == 0 {
		t.Fatal("partial merge served no results")
	}
	if resp.Degraded == nil || len(resp.Degraded.DroppedShards) != 1 {
		t.Fatalf("degraded field = %+v, want one dropped shard", resp.Degraded)
	}
	if h := w.Header().Get(DegradedHeader); !strings.Contains(h, "shards=1") {
		t.Errorf("%s header = %q, want shards=1", DegradedHeader, h)
	}
	for name, want := range map[string]float64{
		"sqe_degraded_responses_total":                        1,
		"sqe_degraded_dropped_shards_total":                   1,
		"sqe_retries_total":                                   0,
		`sqe_fault_injected_total{point="search.shard_eval"}`: 1,
	} {
		if got := metricValue(t, s, name); got != want {
			t.Errorf("metric %s = %g, want %g", name, got, want)
		}
	}

	// Disarmed, the same request serves clean: no header, no field.
	fault.Disarm()
	w = do(t, s, http.MethodGet, "/v1/baseline?q="+paramEscape(q.Text)+"&k=10", "")
	if w.Code != http.StatusOK {
		t.Fatalf("post-disarm status %d: %s", w.Code, w.Body.String())
	}
	if h := w.Header().Get(DegradedHeader); h != "" {
		t.Errorf("post-disarm response still carries %s=%q", DegradedHeader, h)
	}
	if resp := decodeSearch(t, w); resp.Degraded != nil {
		t.Errorf("post-disarm degraded field: %+v", resp.Degraded)
	}
}

// TestBackendFailureIs503 is the table for the one decision
// isBackendFailure makes: an error that is the server's doing — a fault
// degradation could not absorb, a live-index mutation that failed after
// the body validated, an index that recorded corruption, a shard that
// answered with an error or could not be reached — is a 503
// backend_unavailable with the usual envelope,
// never a 400 that blames the caller. None of the I/O rows goes through
// the fault registry: the errors are real ones (a vanished directory, a
// stopped server), which is what used to fall through to bad_request.
func TestBackendFailureIs503(t *testing.T) {
	defer fault.Disarm()
	loadEnv(t)
	q := env.Queries[0]
	search := "/v1/baseline?q=" + paramEscape(q.Text) + "&k=10"
	// brokenLive is a live server with two committed documents and one
	// buffered, whose directory has been deleted under it: every commit,
	// segment write and merge from here on fails in the file system.
	brokenLive := func(t *testing.T) *Server {
		dir := t.TempDir()
		s := liveServerIn(t, dir, 8)
		for _, body := range []string{
			`{"add":[{"name":"d1","text":"alpha beta"},{"name":"d2","text":"beta gamma"}],"flush":true}`,
			`{"add":[{"name":"d3","text":"gamma delta"}]}`,
		} {
			if w := do(t, s, http.MethodPost, "/v1/ingest", body); w.Code != http.StatusOK {
				t.Fatalf("fixture ingest: %d %s", w.Code, w.Body.String())
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		return s
	}
	// rottedLive is a live server whose one committed segment rotted
	// after it was opened: the last byte of its file, in the last block
	// of its last term, gamma, flips under the mapping.
	rottedLive := func(t *testing.T) *Server {
		dir := t.TempDir()
		s := liveServerIn(t, dir, 8)
		body := `{"add":[{"name":"d1","text":"alpha beta"},{"name":"d2","text":"beta gamma"}],"flush":true}`
		if w := do(t, s, http.MethodPost, "/v1/ingest", body); w.Code != http.StatusOK {
			t.Fatalf("fixture ingest: %d %s", w.Code, w.Body.String())
		}
		f, err := os.OpenFile(filepath.Join(dir, "seg-1.v2"), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, fi.Size()-1); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xFF
		if _, err := f.WriteAt(b, fi.Size()-1); err != nil {
			t.Fatal(err)
		}
		return s
	}
	remote := func(t *testing.T, stopShards bool) *Server {
		rs, stop := loopbackShards(t, env.Engine.Index(), 2)
		if stopShards {
			stop()
		}
		s, _ := testServer(t, Config{Engine: sqe.NewEngine(env.Engine.Graph(), env.Engine.Index(), sqe.WithDistributedSearcher(rs))})
		return s
	}
	cases := []struct {
		name    string
		server  func(t *testing.T) *Server
		arm     *fault.Registry
		method  string
		target  string
		body    string
		wantErr string
	}{
		{
			name:    "every shard faults",
			server:  func(t *testing.T) *Server { s, _ := degradingServer(t); return s },
			arm:     fault.NewRegistry(37).Set(fault.ShardEval, fault.Policy{ErrRate: 1}),
			method:  http.MethodGet,
			target:  search,
			wantErr: "injected",
		},
		{
			name:    "delete batch cannot commit its manifest",
			server:  brokenLive,
			method:  http.MethodPost,
			target:  "/v1/ingest",
			body:    `{"delete":["d1","d3"]}`,
			wantErr: "nothing deleted",
		},
		{
			name:    "flush cannot write its segment",
			server:  brokenLive,
			method:  http.MethodPost,
			target:  "/v1/ingest",
			body:    `{"flush":true}`,
			wantErr: "flush:",
		},
		{
			name:    "compaction cannot write its segment",
			server:  brokenLive,
			method:  http.MethodPost,
			target:  "/v1/ingest",
			body:    `{"compact":true}`,
			wantErr: "compact:",
		},
		{
			name:    "the index recorded corruption",
			server:  rottedLive,
			method:  http.MethodGet,
			target:  "/v1/baseline?q=gamma&k=10",
			wantErr: "checksum mismatch",
		},
		{
			name:    "shard answers with an error",
			server:  func(t *testing.T) *Server { return remote(t, false) },
			arm:     fault.NewRegistry(41).Set(fault.RPCServer, fault.Policy{ErrRate: 1}),
			method:  http.MethodGet,
			target:  search,
			wantErr: "server error",
		},
		{
			name:    "shards unreachable",
			server:  func(t *testing.T) *Server { return remote(t, true) },
			method:  http.MethodGet,
			target:  search,
			wantErr: "rpc",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.server(t)
			if c.arm != nil {
				fault.Arm(c.arm)
				defer fault.Disarm()
			}
			w := do(t, s, c.method, c.target, c.body)
			if w.Code != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503: %s", w.Code, w.Body.String())
			}
			var e apiError
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatalf("error body is not the typed envelope: %v\n%s", err, w.Body.String())
			}
			if e.Err.Code != CodeBackendUnavailable || !strings.Contains(e.Err.Message, c.wantErr) {
				t.Errorf("envelope %+v, want code %q and a message mentioning %q", e.Err, CodeBackendUnavailable, c.wantErr)
			}
			endpoint := strings.TrimPrefix(strings.SplitN(c.target, "?", 2)[0], "/v1/")
			if got := metricValue(t, s, `sqe_http_errors_total{endpoint="`+endpoint+`"}`); got != 1 {
				t.Errorf("error counter = %g, want 1", got)
			}
		})
	}
}

// TestExpansionFaultPointCoversEveryExpansion arms core.motif_expand on
// a strict engine: every expansion goes through the one guarded step
// where the point fires, so an SQE_C request, a single-set request and
// Expand all return the injected error, and /v1/expand answers 503
// backend_unavailable.
func TestExpansionFaultPointCoversEveryExpansion(t *testing.T) {
	defer fault.Disarm()
	s, q := testServer(t, Config{})
	eng := s.cfg.Engine
	ctx := context.Background()
	fault.Arm(fault.NewRegistry(43).Set(fault.MotifExpand, fault.Policy{ErrRate: 1}))
	for _, set := range []sqe.MotifSet{0, sqe.MotifTS} {
		if _, err := eng.Do(ctx, sqe.SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: set, K: 10}); !fault.IsInjected(err) {
			t.Errorf("Do(set=%v) = %v, want the injected fault", set, err)
		}
	}
	if _, err := eng.Expand(q.Text, q.EntityTitles, sqe.MotifTS); !fault.IsInjected(err) {
		t.Errorf("Expand = %v, want the injected fault", err)
	}
	w := do(t, s, http.MethodGet, "/v1/expand?q="+paramEscape(q.Text)+"&entities="+paramEscape(entitiesParam(q)), "")
	var e apiError
	if w.Code != http.StatusServiceUnavailable || json.Unmarshal(w.Body.Bytes(), &e) != nil || e.Err.Code != CodeBackendUnavailable {
		t.Fatalf("/v1/expand: HTTP %d %s, want 503 %s", w.Code, w.Body.String(), CodeBackendUnavailable)
	}
}

// TestWireVersionSkewIsBackendFailure: a shard that starts speaking
// another wire version after boot (replaced by an older binary) is the
// server's problem, not the caller's.
func TestWireVersionSkewIsBackendFailure(t *testing.T) {
	if err := fmt.Errorf("search: shard 1: %w", rpc.ErrWireVersion); !isBackendFailure(err) {
		t.Fatalf("%v classified as the caller's error", err)
	}
}

// loopbackShards serves ix as n RPC shard servers on loopback TCP and
// returns the coordinator over them, wired as sqe-serve's coordinator
// mode wires it (client retries off: the degradation policy owns them),
// plus a function that stops every shard server.
func loopbackShards(t *testing.T, ix *index.Index, n int) (*search.RemoteSharded, func()) {
	t.Helper()
	sh := index.NewSharded(ix, n)
	groups := make([]*rpc.Group, n)
	var servers []*rpc.Server
	for i := range groups {
		srv := rpc.NewServer()
		servers = append(servers, srv)
		search.NewShardService(sh.Shard(i), i, n).Register(srv)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		c := rpc.NewClient(ln.Addr().String(), rpc.ClientOptions{MaxRetries: -1})
		groups[i] = rpc.NewGroup([]*rpc.Client{c}, rpc.GroupOptions{})
	}
	rs, err := search.NewRemoteSharded(context.Background(), groups)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	return rs, func() {
		for _, srv := range servers {
			srv.Close()
		}
	}
}

// TestChaosOverHTTP: seeded random error, latency and panic faults
// driven through the HTTP handlers — at every registered point over
// in-process shards, and over RPC shard servers at both ends of the
// wire: the coordinator's rpc.client_call (a transport failure) and the
// shards' rpc.server_handle (the shard answers with an error, which
// reaches the coordinator as an rpc.ServerError, not as an injected
// fault). The servers share this process's registry, so arming the
// remaining points would inject inside the shard handlers' evaluators,
// which a coordinator process never runs. Every reply must be a 200 with
// results (degraded or not) or a typed 5xx envelope — never a 4xx: no
// failure here is the caller's — and once the registry is disarmed the
// same request serves clean again.
func TestChaosOverHTTP(t *testing.T) {
	defer fault.Disarm()
	loadEnv(t)
	g, ix := env.Engine.Graph(), env.Engine.Index()
	q := env.Queries[0]
	params := "q=" + paramEscape(q.Text) + "&entities=" + paramEscape(entitiesParam(q))
	paths := []string{"/v1/search?" + params + "&k=10", "/v1/search?" + params + "&k=5&set=T", "/v1/baseline?" + params + "&k=10"}
	remote, _ := loopbackShards(t, ix, 2)
	for _, c := range []struct {
		name     string
		searcher sqe.Option
		points   []fault.Point
	}{
		{"in-process shards", sqe.WithShards(4), fault.Points()},
		{"rpc shards", sqe.WithDistributedSearcher(remote), []fault.Point{fault.RPCClient, fault.RPCServer}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, _ := testServer(t, Config{Engine: sqe.NewEngine(g, ix, c.searcher,
				sqe.WithExpansionCache(256), sqe.WithDegradation(sqe.DefaultDegradation()))})
			reg := fault.NewRegistry(1)
			for _, p := range c.points {
				pol := fault.Policy{ErrRate: 0.02, Transient: true, LatencyRate: 0.01, Latency: 200 * time.Microsecond}
				switch p {
				case fault.ShardEval:
					pol.ErrRate, pol.PanicRate = 0.15, 0.05
				case fault.MotifExpand:
					pol.ErrRate, pol.Transient = 0.25, false
				case fault.ExpansionCache, fault.RPCClient, fault.RPCServer:
					pol.ErrRate = 0.30
				}
				reg.Set(p, pol)
			}
			fault.Arm(reg)
			defer fault.Disarm()
			for i := 0; i < 60; i++ {
				w := do(t, s, http.MethodGet, paths[i%len(paths)], "")
				switch {
				case w.Code == http.StatusOK:
					if len(decodeSearch(t, w).Results) == 0 {
						t.Fatalf("request %d: 200 without results: %s", i, w.Body.String())
					}
				case w.Code >= 500:
					var e apiError
					if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Err.Code == "" || e.Err.Message == "" {
						t.Fatalf("request %d: HTTP %d with malformed envelope %q", i, w.Code, w.Body.String())
					}
				default:
					t.Fatalf("request %d: unexpected HTTP %d: %s", i, w.Code, w.Body.String())
				}
			}
			if reg.TotalInjected() == 0 {
				t.Fatal("registry injected no faults; chaos exercised nothing")
			}
			if !strings.Contains(do(t, s, http.MethodGet, "/metrics", "").Body.String(), "sqe_fault_injected_total{") {
				t.Error("sqe_fault_injected_total family missing while the registry is armed")
			}

			fault.Disarm()
			w := do(t, s, http.MethodGet, paths[0], "")
			if w.Code != http.StatusOK || len(decodeSearch(t, w).Results) == 0 {
				t.Fatalf("post-disarm: HTTP %d: %s", w.Code, w.Body.String())
			}
			if h := w.Header().Get(DegradedHeader); h != "" {
				t.Errorf("post-disarm reply still marked degraded: %q", h)
			}
		})
	}
}

// TestWriteJSONUnencodableIs503: a reply that encoding cannot render (a
// non-finite float) goes out as the typed 503 envelope, not as a 200
// with an empty body, and no degradation header rides on it.
func TestWriteJSONUnencodableIs503(t *testing.T) {
	for name, v := range map[string]*searchResponse{
		"NaN took_ms": {Query: "q", TookMs: math.NaN()},
		"+Inf score":  {Query: "q", Results: []resultJSON{{Rank: 1, Name: "d", Score: math.Inf(1)}}},
	} {
		t.Run(name, func(t *testing.T) {
			w := httptest.NewRecorder()
			w.Header().Set(DegradedHeader, "shards=1")
			writeJSON(w, http.StatusOK, v)
			if w.Code != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503; body %q", w.Code, w.Body.String())
			}
			var env apiError
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
				t.Fatalf("body %q is not the envelope: %v", w.Body.String(), err)
			}
			if env.Err.Code != CodeBackendUnavailable || !strings.Contains(env.Err.Message, "unsupported value") {
				t.Errorf("envelope %+v", env.Err)
			}
			if h := w.Header().Get(DegradedHeader); h != "" {
				t.Errorf("503 carries %s: %q", DegradedHeader, h)
			}
		})
	}
}
