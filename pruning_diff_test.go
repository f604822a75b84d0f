package sqe

import (
	"context"
	"reflect"
	"testing"
)

// TestEnginePruningBitIdentical is the engine-level differential gate
// for the tentpole: with pruning on (the default) every pipeline
// configuration — all three retrieval models, raw (QL baseline) and
// expanded (SQE_C, single motif set) queries, shard counts 1/2/4/8 —
// must return rankings and scores bit-identical (DeepEqual, no
// tolerance) to a WithPruning(false) engine.
func TestEnginePruningBitIdentical(t *testing.T) {
	e := demo(t)
	models := []struct {
		name string
		opts []Option
	}{
		{"dirichlet", nil},
		{"jelinek-mercer", []Option{WithRetrievalModel(ModelJelinekMercer, ModelParams{Lambda: 0.4})}},
		{"bm25", []Option{WithRetrievalModel(ModelBM25, ModelParams{})}},
	}
	for _, m := range models {
		for _, s := range []int{1, 2, 4, 8} {
			shardOpt := []Option{WithShards(s)}
			full := NewEngine(e.Engine.Graph(), e.Engine.Index(), append(append([]Option{WithPruning(false)}, shardOpt...), m.opts...)...)
			pruned := NewEngine(e.Engine.Graph(), e.Engine.Index(), append(append([]Option{}, shardOpt...), m.opts...)...)
			for _, q := range e.Queries {
				for _, req := range []SearchRequest{
					{Query: q.Text, EntityTitles: q.EntityTitles, K: 10},                    // SQE_C, expanded
					{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifTS, K: 25}, // single set, expanded
					{Query: q.Text, K: 25, Baseline: true},                                  // QL_Q, raw
					{Query: q.Text, K: 1000, Baseline: true},                                // raw, k past the corpus
				} {
					want, err := full.Do(context.Background(), req)
					if err != nil {
						t.Fatalf("%s S=%d %s: unpruned: %v", m.name, s, q.ID, err)
					}
					got, err := pruned.Do(context.Background(), req)
					if err != nil {
						t.Fatalf("%s S=%d %s: pruned: %v", m.name, s, q.ID, err)
					}
					if !reflect.DeepEqual(want.Results, got.Results) {
						t.Fatalf("%s S=%d %s k=%d set=%v baseline=%v: pruned results diverge",
							m.name, s, q.ID, req.K, req.MotifSet, req.Baseline)
					}
				}
			}
		}
	}
}

// TestEnginePruningStats: the pruned engine reports its skip work
// through Do's stats, and the accounting identity against the unpruned
// engine holds end-to-end (advanced + skipped = unpruned advanced).
func TestEnginePruningStats(t *testing.T) {
	e := demo(t)
	full := NewEngine(e.Engine.Graph(), e.Engine.Index(), WithPruning(false))
	pruned := NewEngine(e.Engine.Graph(), e.Engine.Index())
	var sawSkip bool
	var scoredFull, scoredPruned int64
	for _, q := range e.Queries {
		req := SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifTS, K: 10, CollectStats: true}
		want, err := full.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pruned.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		ps, fs := got.Stats.Search, want.Stats.Search
		if ps.PostingsAdvanced+ps.DocsSkipped != fs.PostingsAdvanced {
			t.Fatalf("%s: advanced %d + skipped %d != full postings mass %d",
				q.ID, ps.PostingsAdvanced, ps.DocsSkipped, fs.PostingsAdvanced)
		}
		if ps.CandidatesExamined > fs.CandidatesExamined {
			t.Fatalf("%s: pruned candidates %d > full %d", q.ID, ps.CandidatesExamined, fs.CandidatesExamined)
		}
		if fs.DocsSkipped != 0 {
			t.Fatalf("%s: WithPruning(false) engine reported skips", q.ID)
		}
		if ps.DocsSkipped > 0 {
			sawSkip = true
		}
		scoredFull += fs.CandidatesExamined
		scoredPruned += ps.CandidatesExamined
	}
	if !sawSkip {
		t.Fatal("pruning never skipped a posting across the demo workload")
	}
	// Pruning that stops paying for itself is a regression even when
	// nothing is wrong numerically.
	if scoredFull < 2*scoredPruned {
		t.Fatalf("pruned engine scored %d documents against %d exhaustive: less than the 2x floor", scoredPruned, scoredFull)
	}
}
