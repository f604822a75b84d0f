package search

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/index"
)

// bigSearcher builds an index large enough that the evaluators cross the
// cancelCheckEvery boundary mid-loop.
func bigSearcher(t testing.TB, docs int) *Searcher {
	t.Helper()
	b := index.NewBuilder(analysis.Analyzer{})
	for i := 0; i < docs; i++ {
		b.Add(fmt.Sprintf("D%06d", i), fmt.Sprintf("cable car line %d crosses the bay", i))
	}
	return NewSearcher(b.Build())
}

func TestSearchContextCancelledUpFront(t *testing.T) {
	s := bigSearcher(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.SearchContext(ctx, Term{Text: "cable"}, 10)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Error("cancelled search returned results")
	}
}

func TestSearchContextCancelledMidEvaluation(t *testing.T) {
	// Over 2·cancelCheckEvery candidates so the in-loop check fires at
	// least once after the up-front checks pass.
	s := bigSearcher(t, 2*cancelCheckEvery+100)
	ctx, cancel := context.WithCancel(context.Background())
	q := Combine(Term{Text: "cable"}, Term{Text: "bay"})
	// A context that cancels itself the first time the evaluator looks
	// at it would need scheduling tricks; instead cancel immediately but
	// enter through the internal path with the up-front checks already
	// passed: run the top-k loop directly, pruned and exhaustive.
	var leaves []leaf
	flatten(s.ix, q, 1, &leaves, new(index.PositionalScratch), nil)
	cancel()
	for _, prune := range []bool{true, false} {
		cfg := monoScoring(s)
		cfg.forcePrune, cfg.disablePruning = prune, !prune
		sc := getScratch()
		if _, err := searchRuns(ctx, s.ix, nil, leaves, []int{len(leaves)}, 10, cfg, nil, sc, make([][]Result, 1), nil); !errors.Is(err, context.Canceled) {
			t.Errorf("prune=%v: want context.Canceled, got %v", prune, err)
		}
		putScratch(sc)
	}
}

func TestSearchContextBackgroundMatchesSearch(t *testing.T) {
	s := bigSearcher(t, 64)
	q := Combine(Term{Text: "cable"}, Term{Text: "bay"})
	want := s.Search(q, 10)
	got, err := s.SearchContext(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("result count %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	res, st, err := s.SearchWithStatsContext(context.Background(), q, 10)
	if err != nil || len(res) != len(want) || st.CandidatesExamined == 0 {
		t.Fatalf("SearchWithStatsContext: res=%d st=%+v err=%v", len(res), st, err)
	}
}
