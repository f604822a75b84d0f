package sqe

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/motif"
	"repro/internal/search"
)

// TestDAATMatchesLegacyOnDemoSmall is the end-to-end differential test
// of the ISSUE acceptance criteria: on the DemoSmall corpus, for every
// benchmark query's fully expanded SQE_T&S query (dozens of phrase
// features — the workload the DAAT evaluator was built for), the DAAT
// and legacy evaluators must agree on documents, order, and scores
// (within 1e-12) under Dirichlet, Jelinek-Mercer, and BM25. An OOV term
// is appended to each query so empty leaves are exercised too.
func TestDAATMatchesLegacyOnDemoSmall(t *testing.T) {
	env := demo(t)
	eng := env.Engine
	g := eng.Graph()
	ex := eng.Expander()
	ix := eng.Index()

	models := []struct {
		name  string
		model RetrievalModel
	}{
		{"dirichlet", ModelDirichlet},
		{"jelinek-mercer", ModelJelinekMercer},
		{"bm25", ModelBM25},
	}
	for _, q := range env.Queries {
		var nodes []NodeID
		for _, title := range q.EntityTitles {
			if id := g.ByTitle(title); id >= 0 {
				nodes = append(nodes, id)
			}
		}
		qg := ex.BuildQueryGraph(nodes, motif.SetTS)
		// The OOV suffix analyzes to a leaf with empty postings.
		node := ex.BuildQuery(q.Text+" zzzunseenterm", qg)
		for _, m := range models {
			daat := search.NewSearcher(ix)
			legacy := search.NewSearcher(ix)
			legacy.UseLegacyScorer = true
			daat.Model, legacy.Model = m.model, m.model
			for _, k := range []int{10, 1000} {
				rd := daat.Search(node, k)
				rl := legacy.Search(node, k)
				label := fmt.Sprintf("%s/%s/k=%d", q.ID, m.name, k)
				if len(rd) != len(rl) {
					t.Fatalf("%s: DAAT %d results, legacy %d", label, len(rd), len(rl))
				}
				for i := range rd {
					if rd[i].Doc != rl[i].Doc {
						t.Fatalf("%s: rank %d: DAAT doc %d (%s), legacy doc %d (%s)",
							label, i, rd[i].Doc, rd[i].Name, rl[i].Doc, rl[i].Name)
					}
					if math.Abs(rd[i].Score-rl[i].Score) > 1e-12 {
						t.Fatalf("%s: rank %d: scores differ: %v vs %v", label, i, rd[i].Score, rl[i].Score)
					}
				}
			}
		}
	}
}

// TestSearchWithStatsPopulates checks the stats plumbing end to end:
// running the SQE_C pipeline with a collector attached must attribute
// time to every stage and count 3 retrievals per query.
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
	if ps.Queries != 1 || ps.Retrievals != 3 {
		t.Errorf("Queries=%d Retrievals=%d, want 1/3", ps.Queries, ps.Retrievals)
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
