package search

import (
	"context"
	"errors"
	"testing"
)

func TestSearchContextCancelledUpFront(t *testing.T) {
	s := NewSearcher(skewedIndex(16, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := evalOne(ctx, s, Term{Text: "a"}, 10, EvalOptions{})
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
	s := NewSearcher(skewedIndex(2*cancelCheckEvery+100, 1))
	ctx, cancel := context.WithCancel(context.Background())
	q := Combine(Term{Text: "a"}, Term{Text: "c"})
	// A context that cancels itself the first time the evaluator looks
	// at it would need scheduling tricks; instead cancel immediately but
	// enter through the internal path with the up-front checks already
	// passed: run the top-k loop directly, pruned and exhaustive.
	var leaves []leaf
	flatten(s.ix, q, 1, &leaves, new(flatScratch), nil)
	cancel()
	for _, prune := range []bool{true, false} {
		cfg := monoScoring(s)
		cfg.forcePrune, cfg.disablePruning = prune, !prune
		sc := getScratch()
		if _, _, err := searchRuns(ctx, s.ix, nil, leaves, []int{len(leaves)}, 10, cfg, nil, sc, make([][]Result, 1), nil); !errors.Is(err, context.Canceled) {
			t.Errorf("prune=%v: want context.Canceled, got %v", prune, err)
		}
		putScratch(sc)
	}
}

// TestSearchContextBackgroundMatchesSearch: SearchWithStatsContext, the
// one-tree form bench/ binds, ranks as Evaluate does and fills the stats.
func TestSearchContextBackgroundMatchesSearch(t *testing.T) {
	s := NewSearcher(skewedIndex(64, 1))
	q := Combine(Term{Text: "a"}, Term{Text: "c"})
	want := rank(t, s, q, 10)
	got, st, err := s.SearchWithStatsContext(context.Background(), q, 10)
	if err != nil || st.CandidatesExamined == 0 {
		t.Fatalf("SearchWithStatsContext: st=%+v err=%v", st, err)
	}
	sameResults(t, "SearchWithStatsContext", got, want)
}
