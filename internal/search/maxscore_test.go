package search

import (
	"context"
	"testing"
)

// TestMaxScoreActuallyPrunes guards against the evaluator silently
// degenerating into always-essential: on a skewed corpus with a small k
// the Dirichlet path must skip a meaningful share of postings.
func TestMaxScoreActuallyPrunes(t *testing.T) {
	ix := skewedIndex(2000, 11)
	s := NewSearcher(ix)
	// Enough leaves that the cost model keeps pruning on (a query this
	// size is the regime MaxScore is for; short keyword queries route to
	// exhaustive DAAT by design — see pruneWorthwhile).
	q := Combine(Term{Text: "z"}, Term{Text: "a"}, Term{Text: "b"},
		Term{Text: "c"}, Term{Text: "d"}, Term{Text: "e"},
		Term{Text: "f"}, Term{Text: "g"})
	_, st := rankStats(t, s, q, 5)
	if st.DocsSkipped == 0 {
		t.Fatalf("no postings skipped on a 2000-doc skewed corpus: %v", st)
	}
	if st.BoundEvaluations == 0 {
		t.Fatalf("threshold rose but partition never re-evaluated: %v", st)
	}
	full := NewSearcher(ix)
	full.DisablePruning = true
	_, fst := rankStats(t, full, q, 5)
	if st.CandidatesExamined >= fst.CandidatesExamined {
		t.Fatalf("pruning scored as many candidates as the full scan (%d vs %d)",
			st.CandidatesExamined, fst.CandidatesExamined)
	}
}

// TestMaxScoreCancellation: the pruned loop honours the context like
// the exhaustive one does.
func TestMaxScoreCancellation(t *testing.T) {
	s := NewSearcher(skewedIndex(100, 17))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := evalOne(ctx, s, Term{Text: "a"}, 10, EvalOptions{})
	if err == nil || res != nil {
		t.Fatalf("cancelled pruned search: res=%v err=%v", res, err)
	}
}

// TestPrunedSearchDerivesNoBlockSummaries: a pruned expanded query over
// a memory-backed index reads no block summaries — only the v2 writer
// derives them, as it writes — so the block size can still be chosen
// afterwards.
func TestPrunedSearchDerivesNoBlockSummaries(t *testing.T) {
	ix := skewedIndex(300, 41)
	s := NewSearcher(ix)
	for _, m := range parityModels {
		configure(&s.coordinator, m, forced)
		for _, q := range singleTrees() {
			if _, st := rankStats(t, s, q.trees[0], 10); st.BlocksTotal != 0 {
				t.Fatalf("%s/%s: a memory-backed index reported %d blocks", m.name, q.name, st.BlocksTotal)
			}
		}
	}
	if err := ix.SetBlockSize(4); err != nil {
		t.Fatalf("SetBlockSize after pruned searches: %v", err)
	}
}
