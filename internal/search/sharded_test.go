package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/index"
)

// shardVocab skews toward a few frequent terms so random corpora get
// multi-document postings, score ties and OOV-adjacent rarities.
var shardVocab = []string{
	"cable", "cable", "cable", "car", "car", "tram", "funicular",
	"railway", "gondola", "lift", "museum", "bridge", "harbour", "bay",
	"line", "crossing", "summit", "station", "pylon", "aerial",
}

func buildShardCorpus(docs, seed int) *index.Index {
	rng := rand.New(rand.NewSource(int64(seed)))
	b := index.NewBuilder(plain)
	for d := 0; d < docs; d++ {
		n := 4 + rng.Intn(24)
		text := ""
		for i := 0; i < n; i++ {
			text += shardVocab[rng.Intn(len(shardVocab))] + " "
		}
		b.Add(fmt.Sprintf("doc%04d", d), text)
	}
	return b.Build()
}

// shardQueries cover the leaf kinds and the weighted-tree normalisation,
// including OOV terms (background mass only) and phrase/window leaves
// that materialise per shard.
func shardQueries() []Node {
	return []Node{
		Term{Text: "cable"},
		Term{Text: "zeppelin"}, // OOV
		Combine(Term{Text: "cable"}, Term{Text: "bay"}),
		Phrase{Terms: []string{"cable", "car"}},
		Unordered{Terms: []string{"tram", "bridge"}, Width: 8},
		Weight(
			[]float64{0.6, 0.25, 0.15},
			[]Node{
				Combine(Term{Text: "cable"}, Term{Text: "car"}),
				Phrase{Terms: []string{"cable", "car"}},
				Combine(Phrase{Terms: []string{"railway", "station"}}, Term{Text: "summit"}),
			},
		),
	}
}

// rank is d.Evaluate with no options, for tests that only rank.
func rank(t testing.TB, d Distributed, q Node, k int) []Result {
	t.Helper()
	res, _, err := evalOne(context.Background(), d, q, k, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rankStats is rank with CollectStats: the ranking and its counters.
func rankStats(t testing.TB, d Distributed, q Node, k int) ([]Result, SearchStats) {
	t.Helper()
	res, ev, err := evalOne(context.Background(), d, q, k, EvalOptions{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	return res, ev.Stats
}

func shardedOver(ix *index.Index, n int, model Model, params ModelParams) (*Searcher, *ShardedSearcher) {
	ref := NewSearcher(ix)
	ref.Model = model
	ref.Params = params
	ss := NewShardedSearcher(index.NewSharded(ix, n))
	ss.Model = model
	ss.Params = params
	return ref, ss
}

// TestShardedBitIdentical is the wide sweep behind the coordinator
// contract's bit-identity case (coordinator_test.go), for what only
// round-robin shards exercise: odd shard counts, more shards than some
// postings have documents, and exact score ties straddling shard
// boundaries, which the global-DocID tie rule must order.
func TestShardedBitIdentical(t *testing.T) {
	models := []struct {
		name   string
		model  Model
		params ModelParams
	}{
		{"dirichlet", ModelDirichlet, ModelParams{}},
		{"jelinek-mercer", ModelJelinekMercer, ModelParams{Lambda: 0.4}},
		{"bm25", ModelBM25, ModelParams{K1: 1.2, B: 0.75}},
	}
	for _, corpus := range []struct {
		name string
		ix   *index.Index
	}{
		{"random57", buildShardCorpus(57, 7)},
		{"random200", buildShardCorpus(200, 11)},
		// Crafted: duplicated documents force exact score ties across
		// shard boundaries, exercising the global-DocID tie rule.
		{"crafted-ties", buildIndex(
			"cable car bay", "cable car bay", "cable car bay", "cable car bay",
			"tram bridge", "tram bridge", "cable", "bay bay bay",
		)},
	} {
		for _, m := range models {
			for _, s := range []int{1, 2, 3, 4, 8} {
				for qi, q := range shardQueries() {
					for _, k := range []int{1, 3, 10, 1000} {
						ref, ss := shardedOver(corpus.ix, s, m.model, m.params)
						want := rank(t, ref, q, k)
						got := rank(t, ss, q, k)
						if len(got) != len(want) {
							t.Fatalf("%s/%s S=%d q=%d k=%d: %d results, want %d",
								corpus.name, m.name, s, qi, k, len(got), len(want))
						}
						for i := range want {
							if got[i].Doc != want[i].Doc || got[i].Name != want[i].Name || got[i].Score != want[i].Score {
								t.Fatalf("%s/%s S=%d q=%d k=%d rank %d: got (%d,%q,%v) want (%d,%q,%v)",
									corpus.name, m.name, s, qi, k, i,
									got[i].Doc, got[i].Name, got[i].Score,
									want[i].Doc, want[i].Name, want[i].Score)
							}
						}
					}
				}
			}
		}
	}
}

// TestShardedMuOverrideMatches checks the back-compat Mu field is
// resolved identically on both paths.
func TestShardedMuOverrideMatches(t *testing.T) {
	ix := buildShardCorpus(80, 3)
	ref := NewSearcher(ix)
	ref.Mu = 500
	ss := NewShardedSearcher(index.NewSharded(ix, 4))
	ss.Mu = 500
	q := Combine(Term{Text: "cable"}, Term{Text: "harbour"})
	want := rank(t, ref, q, 20)
	got := rank(t, ss, q, 20)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestShardedEdgeCases(t *testing.T) {
	ix := buildShardCorpus(30, 5)
	ss := NewShardedSearcher(index.NewSharded(ix, 4))
	if res := rank(t, ss, Term{Text: "cable"}, 0); res != nil {
		t.Fatalf("k=0: got %d results", len(res))
	}
	if res := rank(t, ss, Term{Text: ""}, 10); res != nil {
		t.Fatalf("empty query: got %d results", len(res))
	}
	// OOV-only query still ranks every document (background mass), like
	// the unsharded searcher.
	ref := NewSearcher(ix)
	want := rank(t, ref, Term{Text: "zeppelin"}, 10)
	got := rank(t, ss, Term{Text: "zeppelin"}, 10)
	if len(got) != len(want) {
		t.Fatalf("OOV: %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OOV rank %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestShardedCancellation(t *testing.T) {
	ix := buildShardCorpus(64, 9)
	ss := NewShardedSearcher(index.NewSharded(ix, 4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev, err := ss.Evaluate(ctx, []Node{Term{Text: "cable"}}, 10, EvalOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ev.Results != nil {
		t.Fatal("cancelled search returned results")
	}
	// Stats variant surfaces the same error.
	if _, _, err := ss.SearchWithStatsContext(ctx, Term{Text: "cable"}, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("stats path: want context.Canceled, got %v", err)
	}
}

// TestShardedStats pins the SearchStats.Shards convention: one row per
// shard whose counters sum to the aggregates, added element-wise by
// SearchStats.Add. (That the aggregates equal the monolithic counters
// is the coordinator contract's bit-identity case.)
func TestShardedStats(t *testing.T) {
	const S = 4
	ss := NewShardedSearcher(index.NewSharded(buildShardCorpus(120, 13), S))
	ss.DisablePruning = true
	res, st, err := ss.SearchWithStatsContext(context.Background(), Combine(Term{Text: "cable"}, Term{Text: "bay"}), 10)
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
