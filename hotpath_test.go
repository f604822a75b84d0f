package sqe

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/index"
	"repro/internal/motif"
	"repro/internal/search"
	"repro/internal/search/searchtest"
)

// TestSingleConstituentPositionalIsTheTerm is the bit-identity case for
// the one-term #1(t) / #uwN(t) a parsed query or a shard.eval frame can
// carry: flatten serves it as the term leaf (streaming on the mmap'd v2
// index) instead of a per-query deep copy of the term's row, and
// neither the ranking, the scores nor the oracle can tell the difference.
// A window narrower than one term still matches nothing.
func TestSingleConstituentPositionalIsTheTerm(t *testing.T) {
	env := demo(t)
	mem := env.Engine.Index()
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := index.WriteFile(path, mem, index.FormatV2); err != nil {
		t.Fatal(err)
	}
	v2, err := index.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()

	a := mem.Analyzer()
	for _, q := range env.Queries {
		terms := a.AnalyzeTerms(q.Text)
		if len(terms) < 2 {
			continue
		}
		t0, t1 := terms[0], terms[1]
		wrapped := search.Weight([]float64{2, 1, 1, 1}, []search.Node{
			search.Phrase{Terms: []string{t0}},
			search.Unordered{Terms: []string{t1}, Width: 4},
			search.Unordered{Terms: []string{t0}, Width: 0},
			search.Phrase{Terms: []string{"zzzunseenterm"}},
		})
		plain := search.Weight([]float64{2, 1, 1, 1}, []search.Node{
			search.Term{Text: t0},
			search.Term{Text: t1},
			search.Unordered{Terms: []string{t0, t1}, Width: 1}, // an empty leaf, by another route
			search.Term{Text: "zzzunseenterm"},
		})
		for _, m := range []RetrievalModel{ModelDirichlet, ModelJelinekMercer, ModelBM25} {
			oracle := search.NewSearcher(mem)
			oracle.Model = m
			for name, ix := range map[string]*Index{"memory": mem, "v2": v2} {
				s := search.NewSearcher(ix)
				s.Model = m
				for _, k := range []int{10, 1000} {
					want := rankOne(t, s, plain, k)
					if len(want) == 0 {
						t.Fatalf("%s/%s/%v: term query matched nothing", q.ID, name, m)
					}
					if got := rankOne(t, s, wrapped, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s/%v/k=%d: one-term operators rank differently from the terms", q.ID, name, m, k)
					}
					if got := searchtest.Rank(oracle, wrapped, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s/%v/k=%d: the oracle diverges on one-term operators", q.ID, name, m, k)
					}
				}
			}
		}
	}
}

// rankOne is q's top k under s.Evaluate, alone.
func rankOne(t *testing.T, s *search.Searcher, q search.Node, k int) []search.Result {
	t.Helper()
	ev, err := s.Evaluate(context.Background(), []search.Node{q}, k, search.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ev.Results[0]
}

// TestExpandedRetrievalAllocations is the expanded-query twin of the
// hot path's "3 allocations per term query": once the index has resolved
// a query's title phrases, retrieving an SQE-expanded query over the
// mmap'd v2 index allocates a small constant — the result slice and the
// evaluator's closures — where it used to allocate per matching document
// of every phrase (thousands per query).
func TestExpandedRetrievalAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratches at random")
	}
	env := demo(t)
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := index.WriteFile(path, env.Engine.Index(), index.FormatV2); err != nil {
		t.Fatal(err)
	}
	v2, err := index.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	g, ex := env.Engine.Graph(), env.Engine.Expander()
	s := search.NewSearcher(v2)
	ctx := context.Background()
	for _, q := range env.Queries {
		var nodes []NodeID
		for _, title := range q.EntityTitles {
			if id := g.ByTitle(title); id >= 0 {
				nodes = append(nodes, id)
			}
		}
		qs := []search.Node{ex.BuildQuery(q.Text, ex.BuildQueryGraph(nodes, motif.SetTS))}
		ev, err := s.Evaluate(ctx, qs, 10, search.EvalOptions{CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		if st := ev.Stats; st.PositionalHits+st.PositionalMisses == 0 {
			t.Fatalf("%s: the expanded query has no phrase leaf", q.ID)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if ev, err := s.Evaluate(ctx, qs, 10, search.EvalOptions{}); err != nil || len(ev.Results[0]) == 0 {
				t.Fatalf("%s: no results (%v)", q.ID, err)
			}
		})
		if allocs > 32 {
			t.Errorf("%s: a warmed expanded retrieval allocates %.0f times, want <= 32", q.ID, allocs)
		}
	}
}

// TestSearchWithStatsPopulates checks the stats plumbing end to end:
// running the SQE_C pipeline with a collector attached must attribute
// time to every stage and count one evaluator pass (a single index
// evaluates the three runs together).
func TestSearchWithStatsPopulates(t *testing.T) {
	env := demo(t)
	q := env.Queries[0]
	req := SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10, CollectStats: true}
	resp, err := env.Engine.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, ps := resp.Results, resp.Stats
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if ps == nil {
		t.Fatal("CollectStats returned no stats")
	}
	if ps.Queries != 1 || ps.Retrievals != 1 {
		t.Errorf("Queries=%d Retrievals=%d, want 1/1", ps.Queries, ps.Retrievals)
	}
	if ps.Stages.MotifSearch <= 0 || ps.Stages.QueryBuild <= 0 || ps.Stages.Retrieval <= 0 {
		t.Errorf("stage timings not populated: %+v", ps.Stages)
	}
	if ps.Search.CandidatesExamined == 0 || ps.Search.PostingsAdvanced == 0 {
		t.Errorf("search counters not populated: %+v", ps.Search)
	}
	if ps.Stages.Total() <= 0 {
		t.Errorf("Total() = %v", ps.Stages.Total())
	}
	// Stats must not change what is returned.
	noStats := req
	noStats.CollectStats = false
	plain, err := env.Engine.Do(context.Background(), noStats)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i] != plain.Results[i] {
			t.Errorf("rank %d differs with stats attached: %v vs %v", i, res[i], plain.Results[i])
		}
	}
}
