package sqe

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// parallelEngine builds a second Engine over the shared demo env's
// substrates with the serving options on: forced-parallel SQE_C plus an
// expansion cache. The demo linker is not re-installed — these tests use
// explicit entity titles.
func parallelEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e := demo(t)
	return NewEngine(e.Engine.Graph(), e.Engine.Index(), opts...)
}

// doResults runs req and returns just the ranking.
func doResults(ctx context.Context, eng *Engine, req SearchRequest) ([]Result, error) {
	resp, err := eng.Do(ctx, req)
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// searchC runs the SQE_C combination.
func searchC(ctx context.Context, eng *Engine, q DemoQuery, k int) ([]Result, error) {
	return doResults(ctx, eng, SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: k})
}

// searchBaseline runs the unexpanded QL_Q baseline.
func searchBaseline(ctx context.Context, eng *Engine, q DemoQuery, k int) ([]Result, error) {
	return doResults(ctx, eng, SearchRequest{Query: q.Text, K: k, Baseline: true})
}

// TestParallelSQECMatchesSequential is the parity gate for the
// concurrent serving layer: the parallel SQE_C path must return
// byte-identical rankings AND scores to the sequential path for every
// demo query, with and without the expansion cache.
func TestParallelSQECMatchesSequential(t *testing.T) {
	e := demo(t)
	seq := NewEngine(e.Engine.Graph(), e.Engine.Index(), WithSQECWorkers(1))
	par := NewEngine(e.Engine.Graph(), e.Engine.Index(), WithSQECWorkers(3))
	parCached := NewEngine(e.Engine.Graph(), e.Engine.Index(),
		WithSQECWorkers(3), WithExpansionCache(1024))
	for _, k := range []int{10, 300} {
		for _, q := range e.Queries {
			want, err := searchC(context.Background(), seq, q, k)
			if err != nil {
				t.Fatalf("%s: sequential: %v", q.ID, err)
			}
			for name, eng := range map[string]*Engine{"parallel": par, "parallel+cache": parCached} {
				got, err := searchC(context.Background(), eng, q, k)
				if err != nil {
					t.Fatalf("%s/%s: %v", q.ID, name, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s/%s k=%d: results diverge from sequential path", q.ID, name, k)
				}
			}
		}
	}
}

// TestParallelSQECStats asserts the parallel path accumulates the same
// deterministic counters as the sequential one (timings differ; counts
// must not).
func TestParallelSQECStats(t *testing.T) {
	e := demo(t)
	q := e.Queries[0]
	seq := NewEngine(e.Engine.Graph(), e.Engine.Index(), WithSQECWorkers(1))
	par := NewEngine(e.Engine.Graph(), e.Engine.Index(), WithSQECWorkers(3))
	var psSeq, psPar PipelineStats
	for eng, ps := range map[*Engine]*PipelineStats{seq: &psSeq, par: &psPar} {
		resp, err := eng.Do(context.Background(), SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 50, CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		*ps = *resp.Stats
	}
	if psSeq.Queries != psPar.Queries || psSeq.Retrievals != psPar.Retrievals ||
		psSeq.Features != psPar.Features {
		t.Errorf("pipeline counters diverge: seq=%+v par=%+v", psSeq, psPar)
	}
	if psSeq.Search.CandidatesExamined != psPar.Search.CandidatesExamined ||
		psSeq.Search.PostingsAdvanced != psPar.Search.PostingsAdvanced ||
		psSeq.Search.Leaves != psPar.Search.Leaves {
		t.Errorf("search counters diverge: seq=%+v par=%+v", psSeq.Search, psPar.Search)
	}
}

// TestEngineConcurrentStress hammers one shared Engine from many
// goroutines mixing every entry point; run under -race (Makefile `race`
// target) this is the data-race gate for the options-based immutable
// Engine. Results are verified against single-threaded expectations.
func TestEngineConcurrentStress(t *testing.T) {
	e := demo(t)
	eng := NewEngine(e.Engine.Graph(), e.Engine.Index(),
		WithSQECWorkers(2), WithExpansionCache(128))
	queries := e.Queries
	type expect struct {
		search   []Result
		baseline []Result
		expand   *Expansion
	}
	want := make([]expect, len(queries))
	for i, q := range queries {
		s, err := searchC(context.Background(), eng, q, 20)
		if err != nil {
			t.Fatal(err)
		}
		b, err := searchBaseline(context.Background(), eng, q, 20)
		if err != nil {
			t.Fatal(err)
		}
		x, err := eng.Expand(q.Text, q.EntityTitles, MotifTS)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = expect{search: s, baseline: b, expand: x}
	}
	const goroutines = 8
	iters := 20
	if testing.Short() {
		iters = 5
	}
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				qi := (w + it) % len(queries)
				q := queries[qi]
				switch it % 4 {
				case 0:
					got, err := searchC(context.Background(), eng, q, 20)
					if err != nil || !reflect.DeepEqual(got, want[qi].search) {
						t.Errorf("worker %d: SQE_C diverged (err=%v)", w, err)
						return
					}
				case 1:
					got, err := searchBaseline(context.Background(), eng, q, 20)
					if err != nil || !reflect.DeepEqual(got, want[qi].baseline) {
						t.Errorf("worker %d: BaselineSQE_C diverged (err=%v)", w, err)
						return
					}
				case 2:
					got, err := eng.Expand(q.Text, q.EntityTitles, MotifTS)
					if err != nil || !reflect.DeepEqual(got, want[qi].expand) {
						t.Errorf("worker %d: Expand diverged (err=%v)", w, err)
						return
					}
				case 3:
					if _, err := eng.Do(context.Background(), SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifT, K: 10}); err != nil {
						t.Errorf("worker %d: Do(MotifT): %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st, ok := eng.ExpansionCacheStats(); !ok || st.Hits == 0 {
		t.Errorf("expected cache hits under stress, got %+v (ok=%v)", st, ok)
	}
}

// TestEngineExpansionCache checks the cache through the public API: a
// repeated Expand hits, the expansion is identical, and counters are
// visible via ExpansionCacheStats.
func TestEngineExpansionCache(t *testing.T) {
	e := demo(t)
	eng := NewEngine(e.Engine.Graph(), e.Engine.Index(), WithExpansionCache(64))
	q := e.Queries[0]
	first, err := eng.Expand(q.Text, q.EntityTitles, MotifTS)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Expand(q.Text, q.EntityTitles, MotifTS)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached expansion differs from original")
	}
	st, ok := eng.ExpansionCacheStats()
	if !ok {
		t.Fatal("ExpansionCacheStats reported no cache")
	}
	if st.Hits < 1 || st.Misses < 1 {
		t.Errorf("expected at least one hit and one miss, got %+v", st)
	}
	if _, ok := NewEngine(e.Engine.Graph(), e.Engine.Index()).ExpansionCacheStats(); ok {
		t.Error("engine without cache should report ok=false")
	}
}

// TestEngineOptions checks the retrieval options take effect.
func TestEngineOptions(t *testing.T) {
	e := demo(t)
	q := e.Queries[0]
	def := parallelEngine(t)
	small := parallelEngine(t, WithDirichletMu(10))
	bm25 := parallelEngine(t, WithRetrievalModel(ModelBM25, ModelParams{}))
	rd, err := searchBaseline(context.Background(), def, q, 5)
	if err != nil || len(rd) == 0 {
		t.Fatalf("default engine: %v (%d results)", err, len(rd))
	}
	rs, err := searchBaseline(context.Background(), small, q, 5)
	if err != nil || len(rs) == 0 || rs[0].Score == rd[0].Score {
		t.Errorf("WithDirichletMu had no effect: err=%v", err)
	}
	rb, err := searchBaseline(context.Background(), bm25, q, 5)
	if err != nil || len(rb) == 0 || rb[0].Score == rd[0].Score {
		t.Errorf("WithRetrievalModel had no effect: err=%v", err)
	}
}

// TestSearchContextCancellation asserts a cancelled context surfaces
// from the engine's context-accepting entry points.
func TestSearchContextCancellation(t *testing.T) {
	e := demo(t)
	q := e.Queries[0]
	for _, workers := range []int{1, 3} {
		eng := parallelEngine(t, WithSQECWorkers(workers))
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := searchC(ctx, eng, q, 10); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: SQE_C want context.Canceled, got %v", workers, err)
		}
		if _, err := searchBaseline(ctx, eng, q, 10); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: BaselineSQE_C want context.Canceled, got %v", workers, err)
		}
		if _, err := eng.ExpandContext(ctx, q.Text, q.EntityTitles, MotifTS); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: ExpandContext want context.Canceled, got %v", workers, err)
		}
	}
	// A generous deadline must not interfere with a normal search.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	eng := parallelEngine(t, WithSQECWorkers(3))
	res, err := searchC(ctx, eng, q, 10)
	if err != nil || len(res) == 0 {
		t.Fatalf("deadline search failed: %v (%d results)", err, len(res))
	}
}
