package sqe

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestSearchRequestValidation is the table gate for Do's up-front
// request validation.
func TestSearchRequestValidation(t *testing.T) {
	valid := SearchRequest{Query: "cable cars", K: 10}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := []struct {
		name string
		req  SearchRequest
		want string // substring of the error
	}{
		{"zero k", SearchRequest{Query: "q"}, "K must be positive"},
		{"negative k", SearchRequest{Query: "q", K: -5}, "K must be positive"},
		{"unknown motif set", SearchRequest{Query: "q", K: 5, MotifSet: MotifSet(7)}, "unknown motif set"},
		{"baseline with set", SearchRequest{Query: "q", K: 5, Baseline: true, MotifSet: MotifT}, "Baseline excludes MotifSet"},
		{"baseline with entities", SearchRequest{Query: "q", K: 5, Baseline: true, EntityTitles: []string{"X"}}, "Baseline excludes EntityTitles"},
		{"prf without set", SearchRequest{Query: "q", K: 5, PRF: &PRFConfig{}}, "PRF requires"},
		{"negative fbdocs", SearchRequest{Query: "q", K: 5, MotifSet: MotifT, PRF: &PRFConfig{FbDocs: -1}}, "FbDocs"},
		{"negative fbterms", SearchRequest{Query: "q", K: 5, MotifSet: MotifT, PRF: &PRFConfig{FbTerms: -2}}, "FbTerms"},
		{"origweight above one", SearchRequest{Query: "q", K: 5, MotifSet: MotifT, PRF: &PRFConfig{OrigWeight: 1.5}}, "OrigWeight"},
		{"origweight nan", SearchRequest{Query: "q", K: 5, MotifSet: MotifT, PRF: &PRFConfig{OrigWeight: math.NaN()}}, "OrigWeight"},
	}
	e := demo(t)
	for _, c := range cases {
		err := c.req.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want substring %q", c.name, err, c.want)
		}
		// Do must reject identically, before touching the pipeline.
		if _, derr := e.Engine.Do(context.Background(), c.req); derr == nil || derr.Error() != err.Error() {
			t.Errorf("%s: Do error %v != Validate error %v", c.name, derr, err)
		}
	}
	// Valid PRF configurations pass.
	for _, p := range []PRFConfig{{}, {FbDocs: 5, FbTerms: 10}, {OrigWeight: 1}} {
		req := SearchRequest{Query: "q", K: 5, MotifSet: MotifT, PRF: &p}
		if err := req.Validate(); err != nil {
			t.Errorf("PRF %+v rejected: %v", p, err)
		}
	}
}

// TestDoStatsParity pins Do's stats contract: one query per call, one
// retrieval per evaluation — one for SQE_C (its three runs share the
// evaluation) on a single index and on a partitioned engine alike, one
// for an explicit set.
func TestDoStatsParity(t *testing.T) {
	e := demo(t)
	eng := e.Engine
	q := e.Queries[0]
	ctx := context.Background()

	do, err := eng.Do(ctx, SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 20, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if do.Stats == nil || do.Stats.Queries != 1 || do.Stats.Retrievals != 1 {
		t.Fatalf("Do SQE_C stats: %+v", do.Stats)
	}
	sharded := NewEngine(eng.Graph(), eng.Index(), WithShards(2))
	doSharded, err := sharded.Do(ctx, SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 20, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if doSharded.Stats.Queries != 1 || doSharded.Stats.Retrievals != 1 {
		t.Fatalf("Do SQE_C stats on a sharded engine: %+v", doSharded.Stats)
	}
	setResp, err := eng.Do(ctx, SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifTS, K: 20, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if setResp.Stats.Queries != 1 || setResp.Stats.Retrievals != 1 {
		t.Fatalf("Do set stats: %+v", setResp.Stats)
	}
}

// TestDoExpansion: Do returns the expansion used — the single run's for
// an explicit set (identical to Expand), the combined run's for SQE_C,
// none for the baseline.
func TestDoExpansion(t *testing.T) {
	e := demo(t)
	eng := e.Engine
	q := e.Queries[0]
	ctx := context.Background()
	setResp, err := eng.Do(ctx, SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifTS, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Expand(q.Text, q.EntityTitles, MotifTS)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(setResp.Expansion, want) {
		t.Fatal("Do(set=TS).Expansion != Expand(TS)")
	}
	sqecResp, err := eng.Do(ctx, SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sqecResp.Expansion, want) {
		t.Fatal("Do(SQE_C).Expansion should be the combined (T&S) run's")
	}
	doB, err := eng.Do(ctx, SearchRequest{Query: q.Text, K: 10, Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if doB.Expansion != nil {
		t.Fatal("baseline request returned an expansion")
	}
	if setResp.Stats != nil || sqecResp.Stats != nil {
		t.Fatal("Stats must be nil without CollectStats")
	}
}

// TestDoUnknownEntity: entity-resolution failures surface from Do.
func TestDoUnknownEntity(t *testing.T) {
	e := demo(t)
	_, err := e.Engine.Do(context.Background(), SearchRequest{
		Query: "anything", EntityTitles: []string{"No Such Article XYZ"}, K: 10,
	})
	if err == nil || !strings.Contains(err.Error(), "unknown entity title") {
		t.Fatalf("want unknown-entity error, got %v", err)
	}
}

// FuzzSearchRequestValidation fuzzes the request validator and, for
// requests that validate, drives Do end to end on a sharded engine: Do
// must never panic, must reject exactly when Validate rejects, and must
// return at most K results.
func FuzzSearchRequestValidation(f *testing.F) {
	f.Add("cable cars", 10, uint8(0), false, false, 10, 20, 0.0)
	f.Add("", -1, uint8(3), true, true, -1, -1, 1.5)
	f.Add("tram", 0, uint8(7), false, true, 0, 0, math.Inf(1))
	f.Add("q", 5, uint8(1), true, false, 3, 3, 0.5)
	f.Add("harbour", 1000000, uint8(2), false, true, 100, 100, 1.0)
	f.Fuzz(func(t *testing.T, query string, k int, set uint8, baseline, withPRF bool, fbDocs, fbTerms int, origW float64) {
		req := SearchRequest{Query: query, K: k, MotifSet: MotifSet(set), Baseline: baseline}
		if withPRF {
			req.PRF = &PRFConfig{FbDocs: fbDocs, FbTerms: fbTerms, OrigWeight: origW}
		}
		err := req.Validate()
		// Invariants the validator must enforce regardless of input.
		if k <= 0 && err == nil {
			t.Fatalf("K=%d accepted", k)
		}
		if set > 3 && err == nil {
			t.Fatalf("motif set %d accepted", set)
		}
		if withPRF && (fbDocs < 0 || fbTerms < 0 || math.IsNaN(origW) || origW < 0 || origW > 1) && err == nil {
			t.Fatalf("invalid PRF %+v accepted", req.PRF)
		}
		e := demo(t)
		eng := fuzzEngine(t)
		resp, derr := eng.Do(context.Background(), req)
		if (derr != nil) != (err != nil) && err != nil {
			t.Fatalf("Validate err=%v but Do err=%v", err, derr)
		}
		if derr == nil {
			if resp == nil || len(resp.Results) > k {
				t.Fatalf("Do returned %d results for K=%d", len(resp.Results), k)
			}
		}
		_ = e
	})
}

var (
	fuzzEngOnce sync.Once
	fuzzEng     *Engine
)

// fuzzEngine is a shared sharded engine without a linker (arbitrary
// fuzzed queries resolve no entities and exercise the retrieval paths
// cheaply).
func fuzzEngine(t *testing.T) *Engine {
	t.Helper()
	e := demo(t)
	fuzzEngOnce.Do(func() {
		fuzzEng = NewEngine(e.Engine.Graph(), e.Engine.Index(), WithShards(4), WithExpansionCache(64))
	})
	return fuzzEng
}

// TestDoCacheHitByteIdentical: on a cache-enabled engine, a request
// whose expansion is served from the cache — including via a *permuted*
// entity list that shares the entry — must return results and expansion
// byte-identical to a cache-less engine's cold run of the same request.
func TestDoCacheHitByteIdentical(t *testing.T) {
	e := demo(t)
	cold := NewEngine(e.Engine.Graph(), e.Engine.Index())
	cached := NewEngine(e.Engine.Graph(), e.Engine.Index(), WithExpansionCache(128))
	ctx := context.Background()
	for _, q := range e.Queries {
		if len(q.EntityTitles) < 2 {
			continue
		}
		perm := make([]string, len(q.EntityTitles))
		for i, t := range q.EntityTitles {
			perm[len(perm)-1-i] = t
		}
		for _, titles := range [][]string{q.EntityTitles, perm} {
			req := SearchRequest{Query: q.Text, EntityTitles: titles, MotifSet: MotifTS, K: 25}
			want, err := cold.Do(ctx, req)
			if err != nil {
				t.Fatalf("%s: cold: %v", q.ID, err)
			}
			// Twice: first call may miss, second is a guaranteed hit.
			for pass := 0; pass < 2; pass++ {
				got, err := cached.Do(ctx, req)
				if err != nil {
					t.Fatalf("%s pass %d: cached: %v", q.ID, pass, err)
				}
				if !reflect.DeepEqual(want.Results, got.Results) {
					t.Fatalf("%s pass %d titles=%v: cached results diverge from cold run", q.ID, pass, titles)
				}
				if !reflect.DeepEqual(want.Expansion, got.Expansion) {
					t.Fatalf("%s pass %d titles=%v: cached expansion diverges from cold run", q.ID, pass, titles)
				}
			}
		}
	}
	if st, ok := cached.ExpansionCacheStats(); !ok || st.Hits == 0 {
		t.Fatalf("test never exercised a cache hit: %+v", st)
	}
}

// TestDoConcurrentSharded hammers Do on one shared sharded engine from
// many goroutines mixing configurations; under -race (Makefile `race`
// target) this is the data-race gate for concurrent sharded fan-outs
// sharing the engine's worker pool.
func TestDoConcurrentSharded(t *testing.T) {
	e := demo(t)
	eng := NewEngine(e.Engine.Graph(), e.Engine.Index(),
		WithShards(4), WithSQECWorkers(2), WithExpansionCache(128))
	queries := e.Queries
	ctx := context.Background()
	reqs := func(q DemoQuery) []SearchRequest {
		return []SearchRequest{
			{Query: q.Text, EntityTitles: q.EntityTitles, K: 20},
			{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifTS, K: 20, CollectStats: true},
			{Query: q.Text, K: 20, Baseline: true},
		}
	}
	want := make(map[string][]Result)
	for _, q := range queries {
		for ri, req := range reqs(q) {
			resp, err := eng.Do(ctx, req)
			if err != nil {
				t.Fatalf("%s/%d: %v", q.ID, ri, err)
			}
			want[q.ID+string(rune('0'+ri))] = resp.Results
		}
	}
	const goroutines = 8
	iters := 15
	if testing.Short() {
		iters = 4
	}
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				q := queries[(w+it)%len(queries)]
				ri := it % 3
				req := reqs(q)[ri]
				resp, err := eng.Do(ctx, req)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if !reflect.DeepEqual(resp.Results, want[q.ID+string(rune('0'+ri))]) {
					t.Errorf("worker %d: Do diverged on %s/%d", w, q.ID, ri)
					return
				}
				if req.CollectStats && len(resp.Stats.Search.Shards) != 4 {
					t.Errorf("worker %d: missing shard stats", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
