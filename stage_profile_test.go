package sqe

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/experiments"
)

// TestStageProfileMeasuresServedPath pins `sqe-bench -exp stages` to the
// pipeline Engine.Do serves: for every small-scale instance, the
// profile's deterministic counters — evaluations, expansion features,
// flattened leaves and scored candidates — equal the sums over one
// SQE_C request per query with the same manual entities and depth.
func TestStageProfileMeasuresServedPath(t *testing.T) {
	s, err := experiments.NewSuite(dataset.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	g := s.World.Graph
	ctx := context.Background()
	for _, inst := range s.Instances() {
		got := experiments.StageProfile(s, inst).Stats
		eng := NewEngine(g, inst.Index)
		want := &PipelineStats{}
		for qi := range inst.Queries {
			q := &inst.Queries[qi]
			titles := make([]string, len(q.Entities))
			for i, id := range q.Entities {
				titles[i] = g.Title(id)
			}
			resp, err := eng.Do(ctx, SearchRequest{Query: q.Text, EntityTitles: titles, K: experiments.RunDepth, CollectStats: true})
			if err != nil {
				t.Fatalf("%s %s: %v", inst.Name, q.ID, err)
			}
			want.Add(resp.Stats)
		}
		if got.Queries != want.Queries || got.Retrievals != want.Retrievals || got.Features != want.Features {
			t.Errorf("%s: profile has %d queries, %d retrievals, %d features; served path %d, %d, %d",
				inst.Name, got.Queries, got.Retrievals, got.Features, want.Queries, want.Retrievals, want.Features)
		}
		if got.Search.Leaves != want.Search.Leaves || got.Search.CandidatesExamined != want.Search.CandidatesExamined {
			t.Errorf("%s: profile scores %d leaves, %d candidates; served path %d, %d",
				inst.Name, got.Search.Leaves, got.Search.CandidatesExamined, want.Search.Leaves, want.Search.CandidatesExamined)
		}
	}
}
