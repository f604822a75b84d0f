package search

import (
	"context"
	"errors"
	"testing"

	"repro/internal/index"
)

// TestShardedMuOverrideMatches checks the back-compat Mu field is
// resolved identically on both paths.
func TestShardedMuOverrideMatches(t *testing.T) {
	ix := skewedIndex(80, 3)
	ref := NewSearcher(ix)
	ref.Mu = 500
	ss := NewShardedSearcher(index.NewSharded(ix, 4))
	ss.Mu = 500
	q := Combine(Term{Text: "a"}, Term{Text: "e"})
	sameResults(t, "mu=500", rank(t, ss, q, 20), rank(t, ref, q, 20))
}

func TestShardedEdgeCases(t *testing.T) {
	ix := skewedIndex(30, 5)
	ss := NewShardedSearcher(index.NewSharded(ix, 4))
	if res := rank(t, ss, Term{Text: "a"}, 0); res != nil {
		t.Fatalf("k=0: got %d results", len(res))
	}
	if res := rank(t, ss, Term{Text: ""}, 10); res != nil {
		t.Fatalf("empty query: got %d results", len(res))
	}
	// OOV-only query still ranks every document (background mass), like
	// the unsharded searcher.
	q := Term{Text: "nosuchterm"}
	sameResults(t, "OOV", rank(t, ss, q, 10), rank(t, NewSearcher(ix), q, 10))
}

func TestShardedCancellation(t *testing.T) {
	ix := skewedIndex(64, 9)
	ss := NewShardedSearcher(index.NewSharded(ix, 4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev, err := ss.Evaluate(ctx, []Node{Term{Text: "a"}}, 10, EvalOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ev.Results != nil {
		t.Fatal("cancelled search returned results")
	}
	// Stats variant surfaces the same error.
	if _, _, err := ss.SearchWithStatsContext(ctx, Term{Text: "a"}, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("stats path: want context.Canceled, got %v", err)
	}
}

// TestShardedStats pins the SearchStats.Shards convention: one row per
// shard whose counters sum to the aggregates, added element-wise by
// SearchStats.Add. (That the aggregates equal the monolithic counters
// is the coordinator contract's bit-identity case.)
func TestShardedStats(t *testing.T) {
	const S = 4
	ss := NewShardedSearcher(index.NewSharded(skewedIndex(120, 13), S))
	ss.DisablePruning = true
	res, st, err := ss.SearchWithStatsContext(context.Background(), Combine(Term{Text: "a"}, Term{Text: "c"}), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if len(st.Shards) != S {
		t.Fatalf("Shards=%d want %d", len(st.Shards), S)
	}
	var cands, adv int64
	for i, sh := range st.Shards {
		if sh.Elapsed < 0 {
			t.Fatalf("shard %d: negative elapsed", i)
		}
		cands += sh.CandidatesExamined
		adv += sh.PostingsAdvanced
	}
	if cands != st.CandidatesExamined || adv != st.PostingsAdvanced {
		t.Fatalf("per-shard sums (%d,%d) != aggregates (%d,%d)", cands, adv, st.CandidatesExamined, st.PostingsAdvanced)
	}
	agg := st
	agg.Shards = append([]ShardStats(nil), st.Shards...)
	agg.Add(st)
	for i := range agg.Shards {
		if agg.Shards[i].CandidatesExamined != 2*st.Shards[i].CandidatesExamined {
			t.Fatalf("Add: shard %d not element-wise", i)
		}
	}
}
