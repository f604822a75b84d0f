package search

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/index"
)

// segTestDoc is one generated document for segmented-search tests.
type segTestDoc struct {
	name, text string
}

// segTestCorpus generates a deterministic corpus whose vocabulary
// overlaps the test queries (including multi-occurrence docs, so
// positional leaves have matches).
func segTestCorpus(n, seed int) []segTestDoc {
	rng := rand.New(rand.NewSource(int64(seed)))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "alpha", "beta"}
	docs := make([]segTestDoc, n)
	for d := range docs {
		var sb strings.Builder
		for i, l := 0, 3+rng.Intn(20); i < l; i++ {
			sb.WriteString(vocab[rng.Intn(len(vocab))])
			sb.WriteByte(' ')
		}
		docs[d] = segTestDoc{name: fmt.Sprintf("D%05d", d), text: sb.String()}
	}
	return docs
}

// segTestQueries is the query mix: bare terms, weighted trees with
// positional leaves, and an OOV term (exercises the floor probability).
func segTestQueries() []Node {
	return []Node{
		Term{Text: "alpha"},
		Weighted{Children: []Child{
			{Weight: 0.6, Node: Term{Text: "alpha"}},
			{Weight: 0.3, Node: Term{Text: "beta"}},
			{Weight: 0.1, Node: Term{Text: "missingterm"}},
		}},
		Weighted{Children: []Child{
			{Weight: 0.5, Node: Phrase{Terms: []string{"alpha", "beta"}}},
			{Weight: 0.5, Node: Unordered{Terms: []string{"gamma", "delta"}, Width: 8}},
		}},
	}
}

// buildSegmented ingests docs into a fresh Segmented with the given
// flush threshold, deletes the named docs, and optionally compacts.
func buildSegmented(t *testing.T, docs []segTestDoc, flushDocs int, deletes []string, compact bool) *index.Segmented {
	t.Helper()
	live, err := index.OpenSegmented(t.TempDir(), analysis.Analyzer{}, index.WithFlushDocs(flushDocs))
	if err != nil {
		t.Fatalf("OpenSegmented: %v", err)
	}
	t.Cleanup(func() { live.Close() })
	for _, d := range docs {
		if err := live.Ingest(d.name, d.text); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	for _, name := range deletes {
		if _, err := live.Delete(name); err != nil {
			t.Fatalf("Delete(%s): %v", name, err)
		}
	}
	if compact {
		if err := live.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
	}
	return live
}

// survivorsOf filters docs by the deleted-name set.
func survivorsOf(docs []segTestDoc, deletes []string) []segTestDoc {
	dead := make(map[string]bool, len(deletes))
	for _, n := range deletes {
		dead[n] = true
	}
	var out []segTestDoc
	for _, d := range docs {
		if !dead[d.name] {
			out = append(out, d)
		}
	}
	return out
}

// monoSearcher builds the monolithic reference Searcher over docs.
func monoSearcher(docs []segTestDoc) *Searcher {
	b := index.NewBuilder(analysis.Analyzer{})
	for _, d := range docs {
		b.Add(d.name, d.text)
	}
	return NewSearcher(b.Build())
}

// requireSameResults asserts bit-identical rankings (doc, name, exact
// score equality).
func requireSameResults(t *testing.T, got, want []Result, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || got[i].Name != want[i].Name || got[i].Score != want[i].Score {
			t.Fatalf("%s: result %d = {%d %s %.17g}, want {%d %s %.17g}",
				label, i, got[i].Doc, got[i].Name, got[i].Score, want[i].Doc, want[i].Name, want[i].Score)
		}
	}
}

// TestSegmentedSearcherParity: the segmented searcher is bit-identical
// to the oracle over the surviving documents, across models, flush
// sizes, delete schedules, compaction states and pruning modes.
func TestSegmentedSearcherParity(t *testing.T) {
	docs := segTestCorpus(120, 11)
	deleteSets := [][]string{
		nil,
		{"D00000", "D00007", "D00031", "D00064", "D00119"},
	}
	for _, flushDocs := range []int{7, 35, 1000} {
		for di, deletes := range deleteSets {
			for _, compact := range []bool{false, true} {
				live := buildSegmented(t, docs, flushDocs, deletes, compact)
				mono := monoSearcher(survivorsOf(docs, deletes))
				for _, model := range []Model{ModelDirichlet, ModelJelinekMercer, ModelBM25} {
					for _, prune := range []bool{false, true} {
						gs := NewSegmentedSearcher(live)
						gs.Model = model
						gs.DisablePruning = !prune
						gs.forcePrune = prune
						mono.Model = model
						for qi, q := range segTestQueries() {
							label := fmt.Sprintf("flush=%d del=%d compact=%v model=%d prune=%v q=%d", flushDocs, di, compact, model, prune, qi)
							want := OracleRank(mono, q, 10)
							requireSameResults(t, rank(t, gs, q, 10), want, label)
						}
					}
				}
			}
		}
	}
}

// TestSegmentedSearcherEmpty: zero live documents (never ingested, or
// all deleted) return no results, no error.
func TestSegmentedSearcherEmpty(t *testing.T) {
	live := buildSegmented(t, nil, 8, nil, false)
	gs := NewSegmentedSearcher(live)
	if res := rank(t, gs, Term{Text: "alpha"}, 10); len(res) != 0 {
		t.Fatalf("empty index: %v", res)
	}
	docs := segTestCorpus(9, 12)
	var all []string
	for _, d := range docs {
		all = append(all, d.name)
	}
	live2 := buildSegmented(t, docs, 4, all, false)
	gs2 := NewSegmentedSearcher(live2)
	if res := rank(t, gs2, Term{Text: "alpha"}, 10); len(res) != 0 {
		t.Fatalf("fully deleted index: %v", res)
	}
}

// TestSegmentedSearcherStats: SearchStats.Shards carries one entry per
// live segment of the pinned snapshot.
func TestSegmentedSearcherStats(t *testing.T) {
	docs := segTestCorpus(50, 13)
	live := buildSegmented(t, docs, 16, nil, false)
	gs := NewSegmentedSearcher(live)
	res, st, err := gs.SearchWithStatsContext(context.Background(), Term{Text: "alpha"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if want := 4; len(st.Shards) != want { // 3 disk segments + buffer
		t.Fatalf("%d shard stat entries, want %d", len(st.Shards), want)
	}
	if st.Leaves != 1 || st.CandidatesExamined == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

// TestSegmentedSearcherDegradation: the in-process fault point
// (fault.ShardEval) is wired into segment evaluation — an injected
// failure drops that segment under a degradation policy and fails the
// query without one. What a drop does to the ranking is the coordinator
// contract's business (coordinator_test.go).
func TestSegmentedSearcherDegradation(t *testing.T) {
	docs := segTestCorpus(60, 14)
	live := buildSegmented(t, docs, 20, nil, false)
	gs := NewSegmentedSearcher(live)

	fault.Arm(fault.NewRegistry(42).Set(fault.ShardEval, fault.Policy{ErrRate: 1, MaxFaults: 1}))
	defer fault.Disarm()
	res, ev, err := evalOne(context.Background(), gs, Term{Text: "alpha"}, 10, EvalOptions{Degrade: &DegradeOptions{}})
	if err != nil {
		t.Fatalf("degraded search failed: %v", err)
	}
	if !ev.Partial.Degraded() || len(ev.Partial.DroppedShards) != 1 {
		t.Fatalf("expected exactly one dropped segment, got %+v", ev.Partial)
	}
	if len(res) == 0 {
		t.Fatal("surviving segments produced no results")
	}

	fault.Arm(fault.NewRegistry(42).Set(fault.ShardEval, fault.Policy{ErrRate: 1, MaxFaults: 1}))
	if _, _, err := evalOne(context.Background(), gs, Term{Text: "alpha"}, 10, EvalOptions{}); err == nil {
		t.Fatal("strict mode should fail on a segment fault")
	}
}

// TestSegmentedSearcherPinnedSnapshot: a query over an explicitly
// pinned snapshot is unaffected by mutations racing past it, and stays
// bit-identical to the monolithic rebuild of that snapshot's documents.
func TestSegmentedSearcherPinnedSnapshot(t *testing.T) {
	docs := segTestCorpus(80, 15)
	live := buildSegmented(t, docs[:40], 16, nil, false)
	gs := NewSegmentedSearcher(live)

	sn := live.Acquire()
	defer sn.Release()
	mono := monoSearcher(docs[:40])

	// Mutate heavily after pinning.
	for _, d := range docs[40:] {
		if err := live.Ingest(d.name, d.text); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"D00003", "D00017", "D00039"} {
		if _, err := live.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}

	for qi, q := range segTestQueries() {
		want := rank(t, mono, q, 10)
		got, err := gs.SearchSnapshot(context.Background(), sn, q, 10)
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		requireSameResults(t, got, want, fmt.Sprintf("pinned q%d", qi))
	}
}

// TestSegmentedSearcherClosed: searches against a closed live index
// fail cleanly.
func TestSegmentedSearcherClosed(t *testing.T) {
	live := buildSegmented(t, segTestCorpus(10, 16), 4, nil, false)
	gs := NewSegmentedSearcher(live)
	live.Close()
	if _, _, err := evalOne(context.Background(), gs, Term{Text: "alpha"}, 5, EvalOptions{}); err == nil {
		t.Fatal("search on closed index should fail")
	}
}
