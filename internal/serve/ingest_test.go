package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	sqe "repro"
	"repro/internal/fault"
)

// liveServer builds a Server over a fresh live engine (empty segmented
// index on the shared demo graph).
func liveServer(t *testing.T, flushDocs int) *Server {
	t.Helper()
	envOnce.Do(func() { env = sqe.MustGenerateDemo(sqe.DemoSmall) })
	live, err := sqe.OpenLiveIndex(t.TempDir(), flushDocs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })
	return New(Config{Engine: sqe.NewLiveEngine(env.Engine.Graph(), live)})
}

func decodeIngest(t *testing.T, w *httptest.ResponseRecorder) ingestResponse {
	t.Helper()
	var resp ingestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad ingest response JSON: %v\nbody: %s", err, w.Body.String())
	}
	return resp
}

func TestIngestEndpoint(t *testing.T) {
	s := liveServer(t, 8)

	// Add 20 documents and force a flush: 2 committed segments from the
	// auto-flushes plus one from the explicit flush of the 4-doc tail.
	var adds []string
	for i := 0; i < 20; i++ {
		adds = append(adds, fmt.Sprintf(`{"name":"doc%02d","text":"alpha beta gamma doc%02d"}`, i, i))
	}
	w := do(t, s, http.MethodPost, "/v1/ingest", `{"add":[`+strings.Join(adds, ",")+`],"flush":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeIngest(t, w)
	if resp.Added != 20 || !resp.Flushed || resp.LiveDocs != 20 || resp.BufferDocs != 0 || resp.Segments != 3 {
		t.Fatalf("after add+flush: %+v", resp)
	}

	// The ingested documents are immediately searchable.
	w = do(t, s, http.MethodGet, "/v1/baseline?q=alpha&k=5", "")
	if w.Code != http.StatusOK {
		t.Fatalf("baseline status %d: %s", w.Code, w.Body.String())
	}
	if sr := decodeSearch(t, w); len(sr.Results) == 0 {
		t.Fatal("baseline over ingested docs returned no results")
	}

	// Delete two, then compact away the tombstones. Both are in later
	// segments, so the first one's blocks keep their IDs: its eight
	// one-document rows (doc00..doc07) are copied, the short alpha, beta
	// and gamma rows spliced with the later segments' postings, and the
	// ten surviving one-document rows of the later segments encoded.
	w = do(t, s, http.MethodPost, "/v1/ingest", `{"delete":["doc13","doc17","nosuchdoc"],"compact":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp = decodeIngest(t, w)
	if resp.Deleted != 2 || !resp.Compacted || resp.LiveDocs != 18 || resp.Tombstones != 0 || resp.Segments != 1 {
		t.Fatalf("after delete+compact: %+v", resp)
	}

	// An empty body is a no-op state probe.
	w = do(t, s, http.MethodPost, "/v1/ingest", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp = decodeIngest(t, w); resp.Added != 0 || resp.LiveDocs != 18 {
		t.Fatalf("empty-body probe: %+v", resp)
	}

	// The live gauges and the ingest endpoint counters are exported.
	w = do(t, s, http.MethodGet, "/metrics", "")
	body := w.Body.String()
	for _, want := range []string{
		"sqe_live_segments 1",
		"sqe_live_docs 18",
		"sqe_live_tombstones 0",
		"sqe_live_ingested_total 20",
		"sqe_live_deleted_total 2",
		"sqe_live_compactions_total 1",
		"sqe_live_merge_blocks_copied_total 8",
		"sqe_live_merge_blocks_spliced_total 3",
		"sqe_live_merge_blocks_encoded_total 10",
		`sqe_http_requests_total{endpoint="ingest"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	t.Run("delete list is one commit", ingestDeleteListIsOneCommit)
}

// ingestDeleteListIsOneCommit: the delete list of one /v1/ingest is one
// atomic batch. 64 names spread over two committed segments and the
// buffer — listed with one repeat and one unknown name — are deleted
// under exactly one manifest commit and counted exactly; and when the
// commit fails, the whole list stays undeleted, in memory and on disk,
// and the reply blames the backend.
func ingestDeleteListIsOneCommit(t *testing.T) {
	defer fault.Disarm()
	s := liveServer(t, 40)
	var adds []string
	for i := 0; i < 100; i++ {
		adds = append(adds, fmt.Sprintf(`{"name":"doc%03d","text":"alpha beta gamma doc%03d"}`, i, i))
	}
	w := do(t, s, http.MethodPost, "/v1/ingest", `{"add":[`+strings.Join(adds, ",")+`]}`)
	if r := decodeIngest(t, w); w.Code != http.StatusOK || r.Segments != 2 || r.BufferDocs != 20 {
		t.Fatalf("fixture: status %d, %+v", w.Code, r)
	}
	deleteList := func(from, to int, extra ...string) string {
		var names []string
		for i := from; i < to; i++ {
			names = append(names, fmt.Sprintf(`"doc%03d"`, i))
		}
		for _, e := range extra {
			names = append(names, `"`+e+`"`)
		}
		return `{"delete":[` + strings.Join(names, ",") + `]}`
	}
	const commits = "sqe_live_manifest_commits_total"
	before := metricValue(t, s, commits)

	// doc020..doc083: 20 in the first segment, 40 in the second, 4 buffered.
	w = do(t, s, http.MethodPost, "/v1/ingest", deleteList(20, 84, "doc050", "nosuchdoc"))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if r := decodeIngest(t, w); r.Deleted != 64 || r.Tombstones != 64 || r.LiveDocs != 36 {
		t.Fatalf("after the batch: %+v", r)
	}
	if got := metricValue(t, s, commits) - before; got != 1 {
		t.Fatalf("one delete list made %g manifest commits, want 1", got)
	}

	// The same, with the commit failing: nothing of the list applies.
	dir := s.cfg.Engine.Live().Dir()
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(fault.NewRegistry(5).Set(fault.SegmentManifest, fault.Policy{ErrRate: 1}))
	w = do(t, s, http.MethodPost, "/v1/ingest", deleteList(0, 10, "doc090"))
	fault.Disarm()
	if w.Code != http.StatusServiceUnavailable || errorCode(t, w) != CodeBackendUnavailable {
		t.Fatalf("failed commit: status %d: %s", w.Code, w.Body.String())
	}
	if r := decodeIngest(t, do(t, s, http.MethodPost, "/v1/ingest", "")); r.Tombstones != 64 || r.LiveDocs != 36 {
		t.Fatalf("failed commit changed memory: %+v", r)
	}
	if now, err := os.ReadFile(filepath.Join(dir, "MANIFEST")); err != nil || !bytes.Equal(now, manifest) {
		t.Fatalf("failed commit changed the manifest (err %v)", err)
	}
	if got := metricValue(t, s, commits) - before; got != 1 {
		t.Fatalf("failed commit counted: %g commits since the fixture, want 1", got)
	}
}

// TestIngestStreamParity: the demo corpus streamed through POST
// /v1/ingest in batches — while a concurrent reader queries whatever
// half-ingested snapshot is current — ends up answering /v1/search and
// /v1/baseline exactly (names and scores) as a monolithic engine over
// the same documents does; and again after deleting every 7th document
// and compacting, against an index built from the survivors only.
func TestIngestStreamParity(t *testing.T) {
	ref, docs, err := sqe.GenerateDemoCorpus(sqe.DemoSmall)
	if err != nil {
		t.Fatal(err)
	}
	live, err := sqe.OpenLiveIndex(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })
	s := New(Config{Engine: sqe.NewLiveEngine(ref.Engine.Graph(), live)})
	post := func(req ingestRequest) ingestResponse {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		w := do(t, s, http.MethodPost, "/v1/ingest", string(body))
		if w.Code != http.StatusOK {
			t.Fatalf("POST /v1/ingest: status %d: %s", w.Code, w.Body.String())
		}
		return decodeIngest(t, w)
	}
	targets := func(q sqe.DemoQuery) []string {
		return []string{
			"/v1/search?q=" + paramEscape(q.Text) + "&entities=" + paramEscape(entitiesParam(q)) + "&k=10",
			"/v1/baseline?q=" + paramEscape(q.Text) + "&k=10",
		}
	}

	stop, readerDone := make(chan struct{}), make(chan struct{})
	readerTargets := targets(ref.Queries[0])
	go func() {
		defer close(readerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			target := readerTargets[i%len(readerTargets)]
			w := do(t, s, http.MethodGet, target, "")
			var sr searchResponse
			if err := json.Unmarshal(w.Body.Bytes(), &sr); w.Code != http.StatusOK || err != nil {
				t.Errorf("reader during ingest: %s: status %d, decode error %v: %s", target, w.Code, err, w.Body.String())
				return
			}
		}
	}()
	const batch = 40
	for i := 0; i < len(docs); i += batch {
		var req ingestRequest
		for _, d := range docs[i:min(i+batch, len(docs))] {
			req.Add = append(req.Add, ingestDoc{Name: d.Name, Text: d.Text})
		}
		if r := post(req); r.Added != len(req.Add) {
			t.Fatalf("batch at %d: added %d of %d", i, r.Added, len(req.Add))
		}
	}
	r := post(ingestRequest{Flush: true})
	close(stop)
	<-readerDone
	if r.LiveDocs != len(docs) || r.BufferDocs != 0 {
		t.Fatalf("streamed %d docs, index reports %d live and %d buffered", len(docs), r.LiveDocs, r.BufferDocs)
	}

	// sameAs demands every demo query's replies equal the ones a server
	// over the oracle engine gives, took_ms aside.
	sameAs := func(leg string, oracle *sqe.Engine) {
		t.Helper()
		oracleSrv := New(Config{Engine: oracle})
		for _, q := range ref.Queries {
			for _, target := range targets(q) {
				got, want := decodeSearch(t, do(t, s, http.MethodGet, target, "")), decodeSearch(t, do(t, oracleSrv, http.MethodGet, target, ""))
				got.TookMs, want.TookMs = 0, 0
				if len(want.Results) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s %s:\nlive:   %+v\noracle: %+v", leg, q.ID, target, got, want)
				}
			}
		}
	}
	sameAs("post-ingest", ref.Engine)

	var deleted []string
	b := sqe.NewIndexBuilder()
	for i, d := range docs {
		if i%7 == 0 {
			deleted = append(deleted, d.Name)
		} else {
			b.Add(d.Name, d.Text)
		}
	}
	r = post(ingestRequest{Delete: deleted, Compact: true})
	if r.Deleted != len(deleted) || r.Tombstones != 0 || r.Segments != 1 || r.LiveDocs != len(docs)-len(deleted) {
		t.Fatalf("delete+compact of %d docs left %+v", len(deleted), r)
	}
	sameAs("post-delete", sqe.NewEngine(ref.Engine.Graph(), b.Build()))
}

func TestIngestMethodAndBodyErrors(t *testing.T) {
	s := liveServer(t, 8)

	// GET is rejected with the typed 405 envelope.
	w := do(t, s, http.MethodGet, "/v1/ingest", "")
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", w.Code)
	}
	if code := errorCode(t, w); code != CodeMethodNotAllowed {
		t.Fatalf("GET error code %q, want %q", code, CodeMethodNotAllowed)
	}

	// Unknown JSON fields are rejected (a typo must not silently no-op).
	w = do(t, s, http.MethodPost, "/v1/ingest", `{"ad":[{"name":"x","text":"y"}]}`)
	if w.Code != http.StatusBadRequest || errorCode(t, w) != CodeBadRequest {
		t.Fatalf("unknown field: status %d code %q", w.Code, errorCode(t, w))
	}

	// A document without a name is rejected before anything is applied.
	w = do(t, s, http.MethodPost, "/v1/ingest", `{"add":[{"name":" ","text":"y"}]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("missing name: status %d", w.Code)
	}
}

func TestIngestOnImmutableEngine(t *testing.T) {
	s, _ := testServer(t, Config{})
	w := do(t, s, http.MethodPost, "/v1/ingest", `{"add":[{"name":"x","text":"y"}]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 on an immutable engine", w.Code)
	}
	if code := errorCode(t, w); code != CodeBadRequest {
		t.Fatalf("error code %q, want %q", code, CodeBadRequest)
	}
	if !strings.Contains(w.Body.String(), "immutable") {
		t.Fatalf("error message should say the index is immutable: %s", w.Body.String())
	}
}

// errorCode extracts the typed envelope's code.
func errorCode(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("bad error envelope: %v\nbody: %s", err, w.Body.String())
	}
	return e.Err.Code
}
