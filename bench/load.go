package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ---------------------------------------------------------------------
// The server process. The harness re-executes its own binary as the
// server, so set-up time, CPU and peak memory are the server's alone and
// not the load generator's or the data preparation's.

const (
	readyPrefix = "READY "
	statsPath   = "/bench/stats"
	bootTimeout = 60 * time.Second
)

// childStats is what the server process reports about itself.
type childStats struct {
	CPUNs    int64 `json:"cpu_ns"`    // getrusage user+sys
	HWMKB    int64 `json:"hwm_kb"`    // VmHWM
	RPCCalls int64 `json:"rpc_calls"` // coordinator-s2: RPCs issued
	RPCBytes int64 `json:"rpc_bytes"` // coordinator-s2: bytes through the shard listeners
}

// serveChild is the body of the server process: boot the shape, listen
// on a loopback port, announce it, serve until stdin closes.
func serveChild(workload, dataDir, segDir string) error {
	s, err := bootShape(workload, dataDir, segDir, false, nil)
	if err != nil {
		return err
	}
	defer s.close()
	mux := http.NewServeMux()
	mux.Handle("/", s.handler())
	mux.HandleFunc(statsPath, func(w http.ResponseWriter, _ *http.Request) {
		st := childStats{RPCCalls: s.rpcCalls(), RPCBytes: s.rpcBytes.Load(), HWMKB: vmHWMKB()}
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			st.CPUNs = ru.Utime.Nano() + ru.Stime.Nano()
		}
		_ = json.NewEncoder(w).Encode(st)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("%shttp://%s\n", readyPrefix, ln.Addr())
	// The parent holds our stdin; when it closes — the parent is done or
	// dead — so are we.
	_, _ = io.Copy(io.Discard, os.Stdin)
	return srv.Close()
}

// vmHWMKB reads this process's peak resident set from /proc.
func vmHWMKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// child is a running server process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	base  string
	http  *http.Client
}

// spawnChild starts the server and waits for it to announce its address.
// started is taken just before exec, for set-up timing.
func spawnChild(workload, dataDir, segDir string) (c *child, started time.Time, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, started, err
	}
	cmd := exec.Command(exe, "-serve-child", workload, "-data", dataDir, "-segments", segDir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, started, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, started, err
	}
	started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, started, err
	}
	c = &child{cmd: cmd, stdin: stdin, http: newHTTPClient()}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), readyPrefix); ok {
				ready <- rest
				break
			}
		}
		close(ready)
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case base, ok := <-ready:
		if !ok {
			c.stop()
			return nil, started, errors.New("server process exited before it was ready")
		}
		c.base = base
	case <-time.After(bootTimeout):
		c.stop()
		return nil, started, errors.New("server process not ready in time")
	}
	resp, err := c.http.Get(c.base + "/healthz")
	if err != nil {
		c.stop()
		return nil, started, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.stop()
		return nil, started, fmt.Errorf("/healthz: %s", resp.Status)
	}
	return c, started, nil
}

// stop ends the server process and waits for it.
func (c *child) stop() {
	_ = c.stdin.Close()
	done := make(chan struct{})
	go func() { _ = c.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
	c.http.CloseIdleConnections()
}

func (c *child) stats() (childStats, error) {
	var st childStats
	resp, err := c.http.Get(c.base + statsPath)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// metrics scrapes /metrics into series name (labels included) → value.
func (c *child) metrics() (map[string]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, sc.Err()
}

// newHTTPClient returns a client that keeps one connection alive: a
// closed-loop caller has one request outstanding at a time.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
}

// ---------------------------------------------------------------------
// Requests and their checks.

// wireSearch is the /v1/search and /v1/baseline reply.
type wireSearch struct {
	Results []struct {
		Rank  int     `json:"rank"`
		Name  string  `json:"name"`
		Score float64 `json:"score"`
	} `json:"results"`
	Degraded json.RawMessage `json:"degraded"`
	TookMs   float64         `json:"took_ms"`
}

// wireExpand is the /v1/expand reply.
type wireExpand struct {
	QueryNodeTitles []string   `json:"query_node_titles"`
	Features        []weighted `json:"features"`
	TookMs          float64    `json:"took_ms"`
}

// wireIngest is the /v1/ingest reply.
type wireIngest struct {
	Added      int     `json:"added"`
	Deleted    int     `json:"deleted"`
	Segments   int     `json:"segments"`
	BufferDocs int     `json:"buffer_docs"`
	LiveDocs   int     `json:"live_docs"`
	Tombstones int     `json:"tombstones"`
	TookMs     float64 `json:"took_ms"`
}

// call sends one request and returns the 200 reply's body.
func call(hc *http.Client, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %.200s", method, url, resp.Status, data)
	}
	return data, nil
}

// searchCall is a prebuilt search request.
type searchCall struct {
	method, path string
	body         []byte
}

// buildSearchCall renders one (kind, query) pair on the wire.
func buildSearchCall(kind string, q benchQuery) searchCall {
	if kind == kindBaseline {
		return searchCall{method: http.MethodGet,
			path: "/v1/baseline?q=" + url.QueryEscape(q.Text) + "&k=" + strconv.Itoa(resultDepth)}
	}
	req := map[string]any{"query": q.Text, "k": resultDepth}
	if kind == kindManual {
		req["entities"] = q.Entities
	}
	body, _ := json.Marshal(req)
	return searchCall{method: http.MethodPost, path: "/v1/search", body: body}
}

// parseSearch decodes a search reply and checks its form: ranks count up
// from 1, at most k results, nothing degraded.
func parseSearch(data []byte) (results []ranked, tookMs float64, err error) {
	var w wireSearch
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, 0, err
	}
	if len(w.Degraded) > 0 {
		return nil, 0, fmt.Errorf("degraded reply: %s", w.Degraded)
	}
	if len(w.Results) > resultDepth {
		return nil, 0, fmt.Errorf("%d results for k=%d", len(w.Results), resultDepth)
	}
	out := make([]ranked, len(w.Results))
	for i, r := range w.Results {
		if r.Rank != i+1 {
			return nil, 0, fmt.Errorf("rank %d at position %d", r.Rank, i+1)
		}
		out[i] = ranked{r.Name, r.Score}
	}
	return out, w.TookMs, nil
}

func equalRanked(got, want []ranked) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("rank %d: got %v, oracle %v", i+1, got[i], want[i])
		}
	}
	return nil
}

func equalExpansion(gotNodes []string, gotFeat []weighted, wantNodes []string, wantFeat []weighted) error {
	if len(gotNodes) != len(wantNodes) || len(gotFeat) != len(wantFeat) {
		return fmt.Errorf("%d nodes / %d features, oracle has %d / %d", len(gotNodes), len(gotFeat), len(wantNodes), len(wantFeat))
	}
	for i := range gotNodes {
		if gotNodes[i] != wantNodes[i] {
			return fmt.Errorf("query node %d: got %q, oracle %q", i, gotNodes[i], wantNodes[i])
		}
	}
	for i := range gotFeat {
		if gotFeat[i] != wantFeat[i] {
			return fmt.Errorf("feature %d: got %v, oracle %v", i, gotFeat[i], wantFeat[i])
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// The closed loop.

// reply is what a client keeps of a checked reply.
type reply struct {
	bytes  int
	tookMs float64 // the handler's own timing of the engine call, from the body
}

// loadClient is one caller: it keeps one connection, sends its next
// request only after the previous reply, and checks every reply.
type loadClient struct {
	class string // "read" or "write"
	// step sends one request and checks the reply against the oracle.
	step func() (reply, error)

	segs       []segment
	attempted  int
	failed     int
	replyBytes int64
	overheadMs []float64 // measured window: latency seen here minus the handler's took_ms
	firstErr   error
}

// runClosedLoop drives every client for warm + measure; replies that
// complete inside the measured window land in its nseg equal segments.
// atEdge runs on the caller's goroutine at each of the nseg+1 segment
// edges, for the counters read there.
func runClosedLoop(clients []*loadClient, warm, measure time.Duration, nseg int, atEdge func(edge int)) {
	start := time.Now()
	mstart := start.Add(warm)
	end := mstart.Add(measure)
	seglen := measure / time.Duration(nseg)
	var wg sync.WaitGroup
	for _, c := range clients {
		c.segs = make([]segment, nseg)
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			for time.Now().Before(end) {
				t0 := time.Now()
				rep, err := c.step()
				t1 := time.Now()
				c.attempted++
				if err != nil {
					c.failed++
					if c.firstErr == nil {
						c.firstErr = err
					}
					continue
				}
				if t1.Before(mstart) || !t1.Before(end) {
					continue
				}
				s := &c.segs[t1.Sub(mstart)/seglen]
				s.Done++
				ms := float64(t1.Sub(t0).Nanoseconds()) / 1e6
				s.Latencies = append(s.Latencies, ms)
				c.replyBytes += int64(rep.bytes)
				c.overheadMs = append(c.overheadMs, ms-rep.tookMs)
			}
		}(c)
	}
	for edge := 0; edge <= nseg; edge++ {
		time.Sleep(time.Until(mstart.Add(time.Duration(edge) * seglen)))
		atEdge(edge)
	}
	wg.Wait()
}

// mergeSegments adds up the same-index segments of several clients of
// one class.
func mergeSegments(clients []*loadClient, class string) []segment {
	var out []segment
	for _, c := range clients {
		if c.class != class {
			continue
		}
		if out == nil {
			out = make([]segment, len(c.segs))
		}
		for i, s := range c.segs {
			out[i].Done += s.Done
			out[i].Latencies = append(out[i].Latencies, s.Latencies...)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Per-workload clients.

// searchClient issues the search stream and checks each reply against
// the precomputed oracle ranking (or, on live-mixed, against the set of
// acknowledged deletes).
func searchClient(base string, p *prepared, stream *searchStream, calls map[searchReq]searchCall, live *liveLedger) *loadClient {
	hc := newHTTPClient()
	return &loadClient{class: "read", step: func() (reply, error) {
		r := stream.next()
		c := calls[r]
		var sentAfter int64
		if live != nil {
			sentAfter = live.acked.Load()
		}
		data, err := call(hc, c.method, base+c.path, c.body)
		if err != nil {
			return reply{}, err
		}
		got, took, err := parseSearch(data)
		if err != nil {
			return reply{}, err
		}
		q := p.Queries[r.Query]
		if live != nil {
			return reply{len(data), took}, live.check(got, sentAfter)
		}
		if err := equalRanked(got, p.Oracle.lookup(r.Kind, q.ID)); err != nil {
			return reply{}, fmt.Errorf("%s %s: %w", r.Kind, q.ID, err)
		}
		return reply{len(data), took}, nil
	}}
}

// allSearchCalls prebuilds the wire form of every (kind, query) pair.
func allSearchCalls(queries []benchQuery) map[searchReq]searchCall {
	calls := make(map[searchReq]searchCall)
	for _, kind := range []string{kindManual, kindAuto, kindBaseline} {
		for i, q := range queries {
			calls[searchReq{kind, i}] = buildSearchCall(kind, q)
		}
	}
	return calls
}

// expandClient issues the expand stream and checks each reply against an
// uncached engine.
func expandClient(base string, stream *expandStream, oracle *expandOracle) *loadClient {
	hc := newHTTPClient()
	return &loadClient{class: "read", step: func() (reply, error) {
		r := stream.next()
		body, _ := json.Marshal(r)
		data, err := call(hc, http.MethodPost, base+"/v1/expand", body)
		if err != nil {
			return reply{}, err
		}
		var w wireExpand
		if err := json.Unmarshal(data, &w); err != nil {
			return reply{}, err
		}
		nodes, feats, err := oracle.expand(r.Query, r.Entities, r.Set)
		if err != nil {
			return reply{}, err
		}
		if err := equalExpansion(w.QueryNodeTitles, w.Features, nodes, feats); err != nil {
			return reply{}, fmt.Errorf("expand %v %s: %w", r.Entities, r.Set, err)
		}
		return reply{len(data), w.TookMs}, nil
	}}
}

// liveLedger is what the writer has had acknowledged, for the reader's
// check and the per-layer index gauges.
type liveLedger struct {
	acked atomic.Int64 // acknowledged batches so far

	mu         sync.Mutex
	deletedAt  map[string]int64 // name → value of acked once its delete was acknowledged
	segments   []float64        // segments a read crosses (committed, plus the buffer if any) after each batch
	tombRatio  float64          // max tombstones / (live + tombstones)
	tombstones int              // max tombstones seen
	liveDocs   int              // live documents after the latest batch
}

func newLiveLedger() *liveLedger { return &liveLedger{deletedAt: make(map[string]int64)} }

// check passes a well-formed reply — no document twice, every score a
// finite log-likelihood — that holds no document whose delete was
// acknowledged before the request was sent. (An SQE_C ranking is three
// runs spliced at fixed ranks, each document keeping the score of the
// first run that found it, so scores need not fall with rank.)
func (l *liveLedger) check(got []ranked, sentAfter int64) error {
	seen := make(map[string]bool, len(got))
	for i, r := range got {
		if seen[r.Name] {
			return fmt.Errorf("rank %d repeats %q", i+1, r.Name)
		}
		seen[r.Name] = true
		if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
			return fmt.Errorf("rank %d has score %v", i+1, r.Score)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range got {
		if at, gone := l.deletedAt[r.Name]; gone && at <= sentAfter {
			return fmt.Errorf("reply holds %q, whose delete was acknowledged earlier", r.Name)
		}
	}
	return nil
}

// ingestClient is the writer: one /v1/ingest per step.
func ingestClient(base string, stream *ingestStream, ledger *liveLedger) *loadClient {
	hc := newHTTPClient()
	return &loadClient{class: "write", step: func() (reply, error) {
		return sendIngest(hc, base, stream.next(), ledger)
	}}
}

func sendIngest(hc *http.Client, base string, op ingestOp, ledger *liveLedger) (reply, error) {
	body, _ := json.Marshal(op)
	data, err := call(hc, http.MethodPost, base+"/v1/ingest", body)
	if err != nil {
		return reply{}, err
	}
	var w wireIngest
	if err := json.Unmarshal(data, &w); err != nil {
		return reply{}, err
	}
	if w.Added != len(op.Add) || w.Deleted != len(op.Delete) {
		return reply{}, fmt.Errorf("ingest applied %d adds / %d deletes of %d / %d", w.Added, w.Deleted, len(op.Add), len(op.Delete))
	}
	ledger.mu.Lock()
	at := ledger.acked.Add(1)
	for _, name := range op.Delete {
		ledger.deletedAt[name] = at
	}
	crossed := w.Segments
	if w.BufferDocs > 0 {
		crossed++ // a read also searches the unflushed buffer
	}
	ledger.segments = append(ledger.segments, float64(crossed))
	if total := w.LiveDocs + w.Tombstones; total > 0 {
		if r := float64(w.Tombstones) / float64(total); r > ledger.tombRatio {
			ledger.tombRatio = r
		}
	}
	if w.Tombstones > ledger.tombstones {
		ledger.tombstones = w.Tombstones
	}
	ledger.liveDocs = w.LiveDocs
	ledger.mu.Unlock()
	return reply{len(data), w.TookMs}, nil
}
