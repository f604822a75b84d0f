// Package serve is the HTTP serving layer over an sqe.Engine: the
// ROADMAP's production-traffic north star needs more than a library —
// it needs an endpoint with per-request deadlines, load shedding and
// observability. The API is versioned; v1 is the current surface:
//
//	POST/GET /v1/search    — the paper's SQE_C pipeline (or one motif set)
//	POST/GET /v1/expand    — motif expansion only (query graph features)
//	POST/GET /v1/baseline  — the non-expanded QL_Q baseline
//	POST     /v1/ingest    — live document ingest/delete/flush/compact
//	                         (engines built with NewLiveEngine only)
//	GET      /healthz      — liveness + uptime (unversioned by design:
//	                         probes outlive API versions)
//	GET      /metrics      — Prometheus text metrics (pipeline stages,
//	                         evaluator counters, expansion cache, HTTP)
//
// Work endpoints accept either query parameters (?q=…&entities=a,b&k=10)
// or a JSON body ({"query": …, "entities": […], "k": …}); responses are
// JSON. Errors use one typed envelope on every endpoint and version:
//
//	{"error": {"code": "bad_request", "message": "missing query …"}}
//
// with a small closed set of codes (see the Code* constants) so clients
// can branch on code instead of parsing prose. Every work request runs
// under the configured timeout and the engine's context-aware entry
// points, so a deadline or a disconnected client aborts retrieval
// mid-evaluation instead of finishing work nobody will read.
//
// Admission control is two-stage: a max-in-flight limiter bounds the
// requests evaluating concurrently, and an optional bounded wait queue
// (Config.QueueDepth/QueueTimeout) absorbs short bursts by holding
// excess requests briefly for a slot instead of failing them. Anything
// beyond the queue — or queued longer than the deadline — is shed with
// 429 and Retry-After, keeping tail latency bounded under overload. The
// default remains queue-free: shed immediately at max in-flight.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sqe "repro"
	"repro/internal/fault"
	"repro/internal/rpc"
)

// defaultK is the result depth when a request omits k; maxK caps the
// requestable depth.
const (
	defaultK = 10
	maxK     = 1000
)

// Config parameterises the server. Engine is required; zero values for
// the rest select the defaults noted on each field.
type Config struct {
	// Engine serves every request; it must be safe for concurrent use
	// (any options-constructed Engine is).
	Engine *sqe.Engine
	// Timeout bounds each work request end to end (default 10s; <0
	// disables).
	Timeout time.Duration
	// MaxInFlight bounds concurrently evaluating work requests; excess
	// requests are shed with 429 (default 64; <0 disables) — immediately
	// when no queue is configured, otherwise after the queue is exhausted.
	MaxInFlight int
	// QueueDepth bounds how many requests may wait for an in-flight slot
	// when the limiter is saturated, instead of being shed on arrival. A
	// short bounded queue rides out bursts without the unbounded-queue
	// failure mode (every queued request eventually timing out). Default
	// 0: no queue, shed immediately — the pre-queue behaviour.
	QueueDepth int
	// QueueTimeout bounds how long a queued request waits for a slot
	// before being shed with 429 (default 100ms when QueueDepth > 0).
	// Waiting longer than the client would tolerate only converts
	// overload into timeouts, so keep it a fraction of Timeout.
	QueueTimeout time.Duration
	// MaxBodyBytes caps a work request's body; oversized bodies are
	// rejected with 413 (default 1 MiB; <0 disables).
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.QueueDepth > 0 && c.QueueTimeout == 0 {
		c.QueueTimeout = 100 * time.Millisecond
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// endpointStats are one endpoint's atomic counters.
type endpointStats struct {
	requests atomic.Int64
	errors   atomic.Int64
}

// Server is the http.Handler. Construct with New.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	limiter chan struct{}
	start   time.Time

	search   endpointStats
	expand   endpointStats
	baseline endpointStats
	ingest   endpointStats

	shed          atomic.Int64
	timeouts      atomic.Int64
	inFlight      atomic.Int64
	queueLen      atomic.Int64 // requests currently waiting for a slot
	queueWaits    atomic.Int64 // requests that entered the wait queue
	queueTimeouts atomic.Int64 // queued requests shed after QueueTimeout

	// Degradation counters, folded from SearchResponse.Degraded by every
	// work request that goes through runDo.
	degraded      atomic.Int64 // responses whose results were degraded
	degRetries    atomic.Int64 // transient-fault stage retries
	degFallbacks  atomic.Int64 // expansions replaced by the raw query
	droppedShards atomic.Int64 // shard results missing from merges

	// mu guards the aggregated pipeline stats fed by every search and
	// baseline request (the same counters sqe-bench reports per run).
	mu       sync.Mutex
	pipeline sqe.PipelineStats
}

// New returns a Server over cfg.Engine. It panics if the engine is nil —
// a configuration error no request could recover from.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		panic("serve: Config.Engine is nil")
	}
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	if cfg.MaxInFlight > 0 {
		s.limiter = make(chan struct{}, cfg.MaxInFlight)
	}
	s.mux.HandleFunc("/v1/search", s.work(&s.search, s.handleSearch))
	s.mux.HandleFunc("/v1/expand", s.work(&s.expand, s.handleExpand))
	s.mux.HandleFunc("/v1/baseline", s.work(&s.baseline, s.handleBaseline))
	// Ingest is POST-only: it mutates the index, so serving it on GET
	// would invite accidental replays by crawlers and prefetchers.
	s.mux.HandleFunc("/v1/ingest", s.postOnly(&s.ingest, s.work(&s.ingest, s.handleIngest)))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// postOnly rejects every method but POST with the typed 405 envelope
// before the request reaches the work wrapper (which would admit GET).
func (s *Server) postOnly(st *endpointStats, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			st.requests.Add(1)
			st.errors.Add(1)
			writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "use POST")
			return
		}
		h(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Error codes carried by the JSON error envelope. The set is closed and
// versioned with the API: clients branch on code, messages stay free to
// improve.
const (
	// CodeBadRequest: the request itself is malformed (missing query,
	// bad JSON, unknown motif set, unknown entity title).
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed: work endpoints accept only GET and POST.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeOverloaded: shed by admission control (max in-flight reached
	// and, if a queue is configured, the queue full or timed out).
	CodeOverloaded = "overloaded"
	// CodeTimeout: the per-request deadline elapsed mid-evaluation.
	CodeTimeout = "timeout"
	// CodeClientClosed: the client disconnected before the response.
	CodeClientClosed = "client_closed"
	// CodeBodyTooLarge: the request body exceeded MaxBodyBytes.
	CodeBodyTooLarge = "body_too_large"
	// CodeBackendUnavailable: a backend failure degradation could not
	// absorb, or a live-index mutation that failed after the request
	// validated — the server, not the request, is the problem.
	CodeBackendUnavailable = "backend_unavailable"
)

// apiError is the typed JSON error envelope every non-200 response
// carries: {"error": {"code": …, "message": …}}.
type apiError struct {
	Err errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeError renders the typed envelope.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, apiError{Err: errorBody{Code: code, Message: message}})
}

// statusClientClosedRequest is nginx's conventional status for requests
// abandoned by the client; no standard constant exists.
const statusClientClosedRequest = 499

// degrader lets work surface a response's degradation in the X-SQE-
// Degraded header without knowing each endpoint's response shape.
type degrader interface {
	degradation() *sqe.Degradation
}

// DegradedHeader is the response header set when a 200 response's
// results were degraded (shards dropped, expansion replaced).
// Its value is a compact summary, e.g. "shards=1 expansion_fallback=2".
const DegradedHeader = "X-SQE-Degraded"

// degradedHeaderValue renders the compact header summary.
func degradedHeaderValue(d *sqe.Degradation) string {
	var parts []string
	if len(d.DroppedShards) > 0 {
		parts = append(parts, fmt.Sprintf("shards=%d", len(d.DroppedShards)))
	}
	if d.ExpansionFallbacks > 0 {
		parts = append(parts, fmt.Sprintf("expansion_fallback=%d", d.ExpansionFallbacks))
	}
	return strings.Join(parts, " ")
}

// admit runs admission control for one work request. It returns true
// when the request may evaluate, and the caller then owes a release;
// otherwise it has already written the 429 and returns false. With the
// limiter saturated and a queue configured, the request waits — bounded
// by QueueDepth slots and QueueTimeout — for capacity instead of
// failing a burst the server could have absorbed a few milliseconds
// later.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, st *endpointStats) bool {
	if s.limiter == nil {
		return true
	}
	select {
	case s.limiter <- struct{}{}:
		return true
	default:
	}
	message := "server at max in-flight requests"
	if s.cfg.QueueDepth > 0 {
		if n := s.queueLen.Add(1); n <= int64(s.cfg.QueueDepth) {
			s.queueWaits.Add(1)
			t := time.NewTimer(s.cfg.QueueTimeout)
			defer t.Stop()
			select {
			case s.limiter <- struct{}{}:
				s.queueLen.Add(-1)
				return true
			case <-t.C:
				s.queueLen.Add(-1)
				s.queueTimeouts.Add(1)
				message = "server at max in-flight requests (queue wait timed out)"
			case <-r.Context().Done():
				s.queueLen.Add(-1)
				st.errors.Add(1)
				writeError(w, statusClientClosedRequest, CodeClientClosed, "client closed request")
				return false
			}
		} else {
			s.queueLen.Add(-1)
			message = "server at max in-flight requests (queue full)"
		}
	}
	s.shed.Add(1)
	st.errors.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, CodeOverloaded, message)
	return false
}

// release frees the in-flight slot admit took.
func (s *Server) release() {
	if s.limiter != nil {
		<-s.limiter
	}
}

// work wraps a handler with the serving policies: method check,
// admission control (max-in-flight plus the optional bounded queue),
// the body-size cap, the per-request timeout, counters, the mapping
// from context/fault errors to HTTP statuses and error codes, and the
// degraded-response header.
func (s *Server) work(st *endpointStats, h func(context.Context, *http.Request) (jsonReply, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st.requests.Add(1)
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			st.errors.Add(1)
			writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "use GET or POST")
			return
		}
		if s.cfg.MaxBodyBytes > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		if !s.admit(w, r, st) {
			return
		}
		defer s.release()
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		ctx := r.Context()
		if s.cfg.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
			defer cancel()
		}
		resp, err := h(ctx, r)
		if err != nil {
			st.errors.Add(1)
			var tooBig *http.MaxBytesError
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				s.timeouts.Add(1)
				writeError(w, http.StatusGatewayTimeout, CodeTimeout, "request timed out")
			case errors.Is(err, context.Canceled):
				// The client is gone; the status is for the access log.
				writeError(w, statusClientClosedRequest, CodeClientClosed, "client closed request")
			case errors.As(err, &tooBig):
				writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			case isBackendFailure(err):
				writeError(w, http.StatusServiceUnavailable, CodeBackendUnavailable, err.Error())
			default:
				writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			}
			return
		}
		if dg, ok := resp.(degrader); ok {
			if d := dg.degradation(); d.Degraded() {
				w.Header().Set(DegradedHeader, degradedHeaderValue(d))
			}
		}
		if !writeJSON(w, http.StatusOK, resp) {
			st.errors.Add(1)
		}
	}
}

// isBackendFailure is the one place an error is blamed on the server
// (503 backend_unavailable) instead of the caller (400 bad_request). A
// handler's error is the caller's unless it is one of: an injected fault
// or a contained panic that degradation could not absorb; a shard
// server's answer (rpc.ServerError — the coordinator, not the caller,
// composed that request), a transport failure on the way to it, or a
// shard speaking another wire version; or a live-index mutation that
// failed after the body validated (handleIngest marks those with
// mutationError).
func isBackendFailure(err error) bool {
	var pe *fault.PanicError
	var se *rpc.ServerError
	var me mutationError
	return fault.IsInjected(err) || errors.As(err, &pe) ||
		errors.As(err, &se) || rpc.IsTransport(err) || errors.Is(err, rpc.ErrWireVersion) ||
		errors.As(err, &me)
}

// mutationError marks a failed Ingest, DeleteBatch, Flush or
// CompactSegments: the request was well formed, the index could not
// apply it (a manifest commit, a segment write, a merge).
type mutationError struct{ err error }

func (e mutationError) Error() string { return e.err.Error() }
func (e mutationError) Unwrap() error { return e.err }

// request is the decoded form of a work request, from either query
// parameters or a JSON body.
type request struct {
	Query    string   `json:"query"`
	Entities []string `json:"entities"`
	K        int      `json:"k"`
	Set      string   `json:"set"`
}

// decodeRequest reads query parameters (GET or POST) and, for POST with
// a body, merges the JSON fields over them.
func (s *Server) decodeRequest(r *http.Request) (request, error) {
	var req request
	var q url.Values // nil when there is no query string: Get reads ""
	if r.URL.RawQuery != "" {
		q = r.URL.Query()
	}
	req.Query = q.Get("q")
	if req.Query == "" {
		req.Query = q.Get("query")
	}
	for _, ent := range q["entities"] {
		for _, e := range strings.Split(ent, ",") {
			if e = strings.TrimSpace(e); e != "" {
				req.Entities = append(req.Entities, e)
			}
		}
	}
	if ks := q.Get("k"); ks != "" {
		k, err := strconv.Atoi(ks)
		if err != nil {
			return req, fmt.Errorf("bad k %q", ks)
		}
		req.K = k
	}
	req.Set = q.Get("set")
	if r.Method == http.MethodPost && r.Body != nil && r.ContentLength != 0 {
		p, body, err := readBody(r.Body)
		if err != nil || !parseRequest(body, &req) {
			err = decodeJSON(body, err, &req)
		}
		putBuf(p, body)
		if err != nil {
			return req, fmt.Errorf("bad JSON body: %w", err)
		}
	}
	if strings.TrimSpace(req.Query) == "" {
		return req, errors.New("missing query (q parameter or JSON body)")
	}
	if req.K <= 0 {
		req.K = defaultK
	}
	req.K = min(req.K, maxK)
	return req, nil
}

// motifSet maps the wire form ("T", "TS"/"T&S", "S") to a MotifSet.
func motifSet(s string) (sqe.MotifSet, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "T":
		return sqe.MotifT, nil
	case "TS", "T&S", "T+S":
		return sqe.MotifTS, nil
	case "S":
		return sqe.MotifS, nil
	}
	return 0, fmt.Errorf("unknown motif set %q (want T, TS or S)", s)
}

// resultJSON is one ranked document on the wire.
type resultJSON struct {
	Rank  int     `json:"rank"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

func toResultJSON(rs []sqe.Result) []resultJSON {
	out := make([]resultJSON, len(rs))
	for i, r := range rs {
		out[i] = resultJSON{Rank: i + 1, Name: r.Name, Score: r.Score}
	}
	return out
}

// searchResponse is the /search and /baseline response body.
type searchResponse struct {
	Query    string       `json:"query"`
	Entities []string     `json:"entities,omitempty"`
	Set      string       `json:"set,omitempty"`
	K        int          `json:"k"`
	Results  []resultJSON `json:"results"`
	// Degraded reports what graceful degradation did to this request
	// (dropped shards/runs, expansion fallbacks, retries); omitted when
	// nothing happened. See sqe.Degradation for the field contract.
	Degraded *sqe.Degradation `json:"degraded,omitempty"`
	TookMs   float64          `json:"took_ms"`
}

// degradation implements degrader for the X-SQE-Degraded header.
func (r *searchResponse) degradation() *sqe.Degradation { return r.Degraded }

// recordPipeline merges one request's pipeline stats into the server
// aggregate that /metrics exports.
func (s *Server) recordPipeline(ps *sqe.PipelineStats) {
	s.mu.Lock()
	s.pipeline.Add(ps)
	s.mu.Unlock()
}

// runDo executes one engine request with stats collection and folds the
// instrumentation into the /metrics aggregate. All work endpoints that
// retrieve go through here — the per-endpoint request assembly that used
// to pick between the deprecated Search* variants is gone.
func (s *Server) runDo(ctx context.Context, req sqe.SearchRequest) (*sqe.SearchResponse, error) {
	req.CollectStats = true
	resp, err := s.cfg.Engine.Do(ctx, req)
	if err != nil {
		return nil, err
	}
	s.recordPipeline(resp.Stats)
	if d := resp.Degraded; d != nil {
		if d.Degraded() {
			s.degraded.Add(1)
		}
		s.degRetries.Add(int64(d.Retries))
		s.degFallbacks.Add(int64(d.ExpansionFallbacks))
		s.droppedShards.Add(int64(len(d.DroppedShards)))
	}
	return resp, nil
}

func (s *Server) handleSearch(ctx context.Context, r *http.Request) (jsonReply, error) {
	req, err := s.decodeRequest(r)
	if err != nil {
		return nil, err
	}
	er := sqe.SearchRequest{Query: req.Query, EntityTitles: req.Entities, K: req.K}
	if req.Set != "" {
		if er.MotifSet, err = motifSet(req.Set); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	resp, err := s.runDo(ctx, er)
	if err != nil {
		return nil, err
	}
	return &searchResponse{
		Query:    req.Query,
		Entities: req.Entities,
		Set:      req.Set,
		K:        req.K,
		Results:  toResultJSON(resp.Results),
		Degraded: resp.Degraded,
		TookMs:   float64(time.Since(start).Microseconds()) / 1000,
	}, nil
}

func (s *Server) handleBaseline(ctx context.Context, r *http.Request) (jsonReply, error) {
	req, err := s.decodeRequest(r)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := s.runDo(ctx, sqe.SearchRequest{Query: req.Query, K: req.K, Baseline: true})
	if err != nil {
		return nil, err
	}
	return &searchResponse{
		Query:    req.Query,
		K:        req.K,
		Results:  toResultJSON(resp.Results),
		Degraded: resp.Degraded,
		TookMs:   float64(time.Since(start).Microseconds()) / 1000,
	}, nil
}

// featureJSON is one expansion feature on the wire.
type featureJSON struct {
	Title  string  `json:"title"`
	Weight float64 `json:"weight"`
}

// expandResponse is the /expand response body.
type expandResponse struct {
	Query           string        `json:"query"`
	Set             string        `json:"set"`
	QueryNodeTitles []string      `json:"query_node_titles"`
	Features        []featureJSON `json:"features"`
	TookMs          float64       `json:"took_ms"`
}

func (s *Server) handleExpand(ctx context.Context, r *http.Request) (jsonReply, error) {
	req, err := s.decodeRequest(r)
	if err != nil {
		return nil, err
	}
	if req.Set == "" {
		req.Set = "TS"
	}
	set, err := motifSet(req.Set)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	exp, err := s.cfg.Engine.ExpandContext(ctx, req.Query, req.Entities, set)
	if err != nil {
		return nil, err
	}
	features := make([]featureJSON, len(exp.Features))
	for i, f := range exp.Features {
		features[i] = featureJSON{Title: f.Title, Weight: f.Weight}
	}
	return &expandResponse{
		Query:           req.Query,
		Set:             req.Set,
		QueryNodeTitles: exp.QueryNodeTitles,
		Features:        features,
		TookMs:          float64(time.Since(start).Microseconds()) / 1000,
	}, nil
}

// ingestDoc is one document on the ingest wire.
type ingestDoc struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// ingestRequest is the /v1/ingest body. Operations apply in a fixed
// order — adds, then deletes, then flush, then compact — so one request
// can express "replace these documents and persist". The delete list is
// one atomic batch: all of it applies, under a single manifest commit,
// or (on a commit failure) none of it.
type ingestRequest struct {
	Add     []ingestDoc `json:"add"`
	Delete  []string    `json:"delete"`
	Flush   bool        `json:"flush"`
	Compact bool        `json:"compact"`
}

// ingestResponse reports what was applied plus the live index's state
// after the request — the same numbers the sqe_live_* metrics export.
type ingestResponse struct {
	Added      int     `json:"added"`
	Deleted    int     `json:"deleted"`
	Flushed    bool    `json:"flushed,omitempty"`
	Compacted  bool    `json:"compacted,omitempty"`
	Segments   int     `json:"segments"`
	BufferDocs int     `json:"buffer_docs"`
	LiveDocs   int     `json:"live_docs"`
	Tombstones int     `json:"tombstones"`
	TookMs     float64 `json:"took_ms"`
}

// handleIngest ignores its context: the mutation calls are not
// context-aware (each is a quick buffer append or a local disk commit
// that must not be torn by a client disconnect mid-write).
func (s *Server) handleIngest(_ context.Context, r *http.Request) (jsonReply, error) {
	if s.cfg.Engine.Live() == nil {
		return nil, errors.New("engine serves an immutable index; ingest requires a live (segmented) deployment")
	}
	var req ingestRequest
	if r.Body != nil && r.ContentLength != 0 {
		p, body, err := readBody(r.Body)
		err = decodeJSON(body, err, &req)
		putBuf(p, body)
		if err != nil {
			return nil, fmt.Errorf("bad JSON body: %w", err)
		}
	}
	for i, d := range req.Add {
		if strings.TrimSpace(d.Name) == "" {
			return nil, fmt.Errorf("add[%d]: missing document name", i)
		}
	}
	start := time.Now()
	var out ingestResponse
	// A failed Ingest has still buffered the document (the error reports
	// a failed background flush, which retries on the next trigger), so
	// it counts as added; the error still surfaces so the client knows
	// durability is behind.
	for _, d := range req.Add {
		err := s.cfg.Engine.Ingest(d.Name, d.Text)
		out.Added++
		if err != nil {
			return nil, mutationError{fmt.Errorf("ingest %q (document buffered, flush pending): %w", d.Name, err)}
		}
	}
	if len(req.Delete) > 0 {
		n, err := s.cfg.Engine.DeleteBatch(req.Delete)
		if err != nil {
			return nil, mutationError{fmt.Errorf("delete (nothing deleted): %w", err)}
		}
		out.Deleted = n
	}
	if req.Flush {
		if err := s.cfg.Engine.Flush(); err != nil {
			return nil, mutationError{fmt.Errorf("flush: %w", err)}
		}
		out.Flushed = true
	}
	if req.Compact {
		if err := s.cfg.Engine.CompactSegments(); err != nil {
			return nil, mutationError{fmt.Errorf("compact: %w", err)}
		}
		out.Compacted = true
	}
	st, _ := s.cfg.Engine.LiveStats()
	out.Segments = st.DiskSegments
	out.BufferDocs = st.BufferDocs
	out.LiveDocs = st.LiveDocs
	out.Tombstones = st.Tombstones
	out.TookMs = float64(time.Since(start).Microseconds()) / 1000
	return &out, nil
}

// healthzResponse is the /healthz body.
type healthzResponse struct {
	InFlight int64   `json:"in_flight"`
	Status   string  `json:"status"`
	UptimeS  float64 `json:"uptime_s"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &healthzResponse{
		InFlight: s.inFlight.Load(),
		Status:   "ok",
		UptimeS:  time.Since(s.start).Seconds(),
	})
}
