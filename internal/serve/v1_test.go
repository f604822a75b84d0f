package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	sqe "repro"
)

// TestAdmissionQueueAdmits: with the limiter saturated and a queue
// configured, a request waits for the slot instead of shedding, and is
// admitted the moment it frees.
func TestAdmissionQueueAdmits(t *testing.T) {
	s, q := testServer(t, Config{MaxInFlight: 1, QueueDepth: 1, QueueTimeout: 5 * time.Second})
	s.limiter <- struct{}{} // occupy the only slot
	var wg sync.WaitGroup
	var code int
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := do(t, s, http.MethodGet, "/v1/search?q="+paramEscape(q.Text)+"&entities="+paramEscape(entitiesParam(q)), "")
		code = w.Code
	}()
	// Wait until the request is queued, then free the slot.
	for i := 0; s.queueLen.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.queueLen.Load() != 1 {
		t.Fatal("request never entered the admission queue")
	}
	<-s.limiter
	wg.Wait()
	if code != http.StatusOK {
		t.Fatalf("queued request finished %d, want 200", code)
	}
	if s.queueWaits.Load() != 1 {
		t.Errorf("queue-wait counter = %d, want 1", s.queueWaits.Load())
	}
	if s.shed.Load() != 0 {
		t.Errorf("shed counter = %d, want 0 — the queue should have absorbed the burst", s.shed.Load())
	}
}

// TestAdmissionQueueTimeout: a queued request that never gets a slot
// sheds with 429 after QueueTimeout and moves the timeout counter.
func TestAdmissionQueueTimeout(t *testing.T) {
	s, q := testServer(t, Config{MaxInFlight: 1, QueueDepth: 1, QueueTimeout: 5 * time.Millisecond})
	s.limiter <- struct{}{}
	defer func() { <-s.limiter }()
	w := do(t, s, http.MethodGet, "/v1/search?q="+paramEscape(q.Text), "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
	}
	var env apiError
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Err.Code != CodeOverloaded || !strings.Contains(env.Err.Message, "queue wait timed out") {
		t.Errorf("envelope %+v, want overloaded + queue wait timed out", env.Err)
	}
	if s.queueTimeouts.Load() != 1 {
		t.Errorf("queue-timeout counter = %d, want 1", s.queueTimeouts.Load())
	}
	if s.queueLen.Load() != 0 {
		t.Errorf("queue gauge = %d after shed, want 0", s.queueLen.Load())
	}
}

// TestAdmissionQueueFull: requests beyond QueueDepth shed immediately
// rather than waiting — the queue is bounded by design.
func TestAdmissionQueueFull(t *testing.T) {
	s, q := testServer(t, Config{MaxInFlight: 1, QueueDepth: 1, QueueTimeout: 5 * time.Second})
	s.limiter <- struct{}{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // fills the single queue slot
		defer wg.Done()
		do(t, s, http.MethodGet, "/v1/search?q="+paramEscape(q.Text)+"&entities="+paramEscape(entitiesParam(q)), "")
	}()
	for i := 0; s.queueLen.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	w := do(t, s, http.MethodGet, "/v1/search?q="+paramEscape(q.Text), "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "queue full") {
		t.Errorf("envelope %s, want a queue-full shed", w.Body.String())
	}
	<-s.limiter // let the queued request through
	wg.Wait()
}

// TestShardMetricLabelOrder: each per-shard family emits its series in
// ascending shard index, one family at a time, so successive scrapes
// diff line-for-line deterministically.
func TestShardMetricLabelOrder(t *testing.T) {
	envOnce.Do(func() { env = sqe.MustGenerateDemo(sqe.DemoSmall) })
	eng := sqe.NewEngine(env.Engine.Graph(), env.Engine.Index(), sqe.WithShards(4))
	s, q := testServer(t, Config{Engine: eng})
	if w := do(t, s, http.MethodGet, "/v1/search?q="+paramEscape(q.Text)+"&entities="+paramEscape(entitiesParam(q))+"&set=TS", ""); w.Code != http.StatusOK {
		t.Fatalf("search status %d: %s", w.Code, w.Body.String())
	}
	body := do(t, s, http.MethodGet, "/metrics", "").Body.String()
	// Collect every sample line carrying a shard label, in emission order.
	type sample struct{ family, shard string }
	var got []sample
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "sqe_search_shard_") || strings.HasPrefix(line, "#") {
			continue
		}
		open := strings.Index(line, "{shard=\"")
		close := strings.Index(line, "\"}")
		if open < 0 || close < 0 {
			t.Fatalf("malformed shard sample: %q", line)
		}
		got = append(got, sample{line[:open], line[open+len("{shard=\"") : close]})
	}
	var want []sample
	for _, fam := range []string{
		"sqe_search_shard_seconds_total",
		"sqe_search_shard_candidates_examined_total",
		"sqe_search_shard_postings_advanced_total",
		"sqe_search_shard_docs_skipped_total",
	} {
		for _, sh := range []string{"0", "1", "2", "3"} {
			want = append(want, sample{fam, sh})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("shard sample lines = %d, want %d:\n%+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shard sample %d = %+v, want %+v (unstable label order)", i, got[i], want[i])
		}
	}
}
