package sqe

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// parallelEngine builds a second Engine over the shared demo env's
// substrates with the given options. The demo linker is not
// re-installed — these tests use explicit entity titles.
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

// TestParallelSQECMatchesSequential is the parity gate for SQE_C's one
// pass: a single-index engine evaluates the three runs together, and its
// splice must be byte-identical — rankings AND scores — to splicing the
// three runs' own explicit-set requests, for every demo query at a
// shallow and a deep cut, with and without the expansion cache.
// (WithSQECWorkers only sizes a partitioned engine's fan-out pool; a
// single index has none.)
func TestParallelSQECMatchesSequential(t *testing.T) {
	e := demo(t)
	g, ix := e.Engine.Graph(), e.Engine.Index()
	ref := NewEngine(g, ix)
	engines := map[string]*Engine{
		"plain": ref,
		"cache": NewEngine(g, ix, WithExpansionCache(1024)),
	}
	ctx := context.Background()
	for _, k := range []int{10, 300} {
		for _, q := range e.Queries {
			var runs [3][]Result
			for i, set := range sqecSets {
				res, err := doResults(ctx, ref, SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: set, K: k})
				if err != nil {
					t.Fatalf("%s: run %v: %v", q.ID, set, err)
				}
				runs[i] = res
			}
			want := core.SpliceResultsC(k, runs[0], runs[1], runs[2])
			for name, eng := range engines {
				got, err := searchC(ctx, eng, q, k)
				if err != nil {
					t.Fatalf("%s/%s: %v", q.ID, name, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s/%s k=%d: the one pass diverges from the three runs spliced", q.ID, name, k)
				}
			}
		}
	}
}

// TestParallelSQECStats pins what an SQE_C request's stats say ran: one
// evaluation over the union of the three runs' leaves (fewer than their
// sum: T&S's leaves are T's plus S's), on a single index and on a
// partitioned engine alike.
func TestParallelSQECStats(t *testing.T) {
	e := demo(t)
	g, ix := e.Engine.Graph(), e.Engine.Index()
	q := e.Queries[0]
	stats := func(eng *Engine, set MotifSet) *PipelineStats {
		t.Helper()
		resp, err := eng.Do(context.Background(), SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: set, K: 50, CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Stats
	}
	one := stats(NewEngine(g, ix), 0)
	if one.Retrievals != 1 {
		t.Errorf("Retrievals = %d, want one pass", one.Retrievals)
	}
	var leaves int
	for _, set := range sqecSets {
		leaves += stats(e.Engine, set).Search.Leaves
	}
	if one.Search.Leaves >= leaves {
		t.Errorf("the pass has %d leaves, the three runs %d together", one.Search.Leaves, leaves)
	}
	if sh := stats(NewEngine(g, ix, WithShards(2)), 0); sh.Retrievals != 1 || len(sh.Search.Shards) != 2 {
		t.Errorf("partitioned engine: Retrievals = %d over %d shards, want one evaluation over 2", sh.Retrievals, len(sh.Search.Shards))
	}
}

// TestEngineConcurrentStress hammers one shared Engine from many
// goroutines mixing every entry point; run under -race (Makefile `race`
// target) this is the data-race gate for the options-based immutable
// Engine. Results are verified against single-threaded expectations.
func TestEngineConcurrentStress(t *testing.T) {
	e := demo(t)
	eng := NewEngine(e.Engine.Graph(), e.Engine.Index(), WithExpansionCache(128))
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
	small := parallelEngine(t, WithMu(10))
	rd, err := searchBaseline(context.Background(), def, q, 5)
	if err != nil || len(rd) == 0 {
		t.Fatalf("default engine: %v (%d results)", err, len(rd))
	}
	rs, err := searchBaseline(context.Background(), small, q, 5)
	if err != nil || len(rs) == 0 || rs[0].Score == rd[0].Score {
		t.Errorf("WithMu had no effect: err=%v", err)
	}
}

// TestSearchContextCancellation asserts a cancelled context surfaces
// from the engine's context-accepting entry points.
func TestSearchContextCancellation(t *testing.T) {
	e := demo(t)
	q := e.Queries[0]
	for name, eng := range map[string]*Engine{
		"single":   parallelEngine(t),
		"shards-2": parallelEngine(t, WithShards(2), WithSQECWorkers(3)),
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := searchC(ctx, eng, q, 10); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: SQE_C want context.Canceled, got %v", name, err)
		}
		if _, err := searchBaseline(ctx, eng, q, 10); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: BaselineSQE_C want context.Canceled, got %v", name, err)
		}
		if _, err := eng.ExpandContext(ctx, q.Text, q.EntityTitles, MotifTS); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: ExpandContext want context.Canceled, got %v", name, err)
		}
	}
	// A generous deadline must not interfere with a normal search.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	eng := parallelEngine(t)
	res, err := searchC(ctx, eng, q, 10)
	if err != nil || len(res) == 0 {
		t.Fatalf("deadline search failed: %v (%d results)", err, len(res))
	}
}
