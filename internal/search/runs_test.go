package search

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/index"
)

// runTrees is an SQE_C-shaped triple over buildSkewedIndex's vocabulary:
// the runs share terms and a phrase under different weights, the second
// holds an out-of-vocabulary term, the third holds one leaf twice (once
// as a term, once as a one-term phrase) and a window. empty in [0, 3)
// replaces that run with a tree that flattens to no leaves.
func runTrees(w [4]float64, empty int) []Node {
	trees := []Node{
		Weight([]float64{w[0], w[1], w[2]}, []Node{
			Term{Text: "a"}, Phrase{Terms: []string{"a", "b"}}, Term{Text: "z"},
		}),
		Weight([]float64{w[0], w[1], w[2], w[3], 1}, []Node{
			Term{Text: "a"}, Phrase{Terms: []string{"a", "b"}}, Term{Text: "z"},
			Unordered{Terms: []string{"b", "c"}, Width: 8}, Term{Text: "nosuchterm"},
		}),
		Weight([]float64{w[3], 1, w[1], w[2]}, []Node{
			Unordered{Terms: []string{"b", "c"}, Width: 8}, Term{Text: "a"},
			Phrase{Terms: []string{"a"}}, Term{Text: "c"},
		}),
	}
	if empty >= 0 && empty < len(trees) {
		trees[empty] = Weighted{}
	}
	return trees
}

// assertRunsMatchSeparate evaluates trees in one pass on s and diffs
// each ranking against the exhaustive evaluation of that tree alone.
func assertRunsMatchSeparate(t *testing.T, label string, s, full *Searcher, trees []Node, k int) {
	t.Helper()
	got, err := s.SearchRuns(context.Background(), trees, k, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(trees) {
		t.Fatalf("%s: %d rankings for %d trees", label, len(got), len(trees))
	}
	for r, q := range trees {
		assertIdenticalResults(t, fmt.Sprintf("%s run %d", label, r), got[r], full.Search(q, k))
	}
}

// runsSearchers returns the one-pass evaluator under every pruning
// switch — forced, default (a pass prunes every run either way) and
// off — beside the exhaustive reference.
func runsSearchers(ix *index.Index, model Model, params ModelParams, mu float64) (modes map[string]*Searcher, full *Searcher) {
	forced, full := prunedPair(ix, model, params, mu)
	def, _ := prunedPair(ix, model, params, mu)
	def.forcePrune = false
	unpruned, _ := prunedPair(ix, model, params, mu)
	unpruned.forcePrune, unpruned.DisablePruning = false, true
	return map[string]*Searcher{"forced": forced, "default": def, "unpruned": unpruned}, full
}

// TestSearchRunsMatchesSeparate: every run of a one-pass evaluation is
// bit-identical to its own exhaustive evaluation — over crafted ties and
// lengths, a skewed corpus, their v2 files at a tiny block size, every
// model, every pruning mode, shallow and deep cuts. The last leg
// evaluates every pruning query at once: eleven runs, one pass.
func TestSearchRunsMatchesSeparate(t *testing.T) {
	corpora := map[string]*index.Index{
		"ties":    buildIndex("a b", "a b", "a b", "a b", "b c", "b c", "z"),
		"lengths": buildIndex("a", "a a a a a a a a a a a a", "a b", "b", "z a"),
		"skewed":  buildSkewedIndex(400, 5),
	}
	for name, ix := range map[string]*index.Index{"ties": corpora["ties"], "skewed": corpora["skewed"]} {
		corpora[name+"-v2"] = v2Copy(t, blockSized(t, ix, 4))
	}
	var all []Node
	for _, q := range pruningQueries() {
		all = append(all, q)
	}
	for cname, ix := range corpora {
		for _, m := range pruningModels {
			modes, full := runsSearchers(ix, m.model, m.params, m.mu)
			for mode, s := range modes {
				for _, k := range []int{1, 3, 10, 1000} {
					label := fmt.Sprintf("%s/%s/%s k=%d", cname, m.name, mode, k)
					for empty := -1; empty < 3; empty++ {
						assertRunsMatchSeparate(t, fmt.Sprintf("%s empty=%d", label, empty), s, full,
							runTrees([4]float64{0.6, 0.3, 0.1, 0.25}, empty), k)
					}
					assertRunsMatchSeparate(t, label+" all-queries", s, full, all, k)
				}
			}
		}
	}
}

// TestSearchRunsCounters pins the one pass's accounting: Leaves counts
// the union (a leaf shared by runs, or repeated in one, counts once);
// every union posting is consumed or skipped, so the pruned pass's
// advanced + skipped is the exhaustive pass's advanced; the exhaustive
// pass skips nothing and tests no bound; and the pass scores fewer
// candidates than the three separate pruned evaluations together.
func TestSearchRunsCounters(t *testing.T) {
	ix := buildSkewedIndex(2000, 11)
	trees := runTrees([4]float64{0.6, 0.3, 0.1, 0.25}, -1)
	for _, m := range pruningModels {
		modes, _ := runsSearchers(ix, m.model, m.params, m.mu)
		var pst, fst SearchStats
		if _, err := modes["forced"].SearchRuns(context.Background(), trees, 5, &pst); err != nil {
			t.Fatal(err)
		}
		if _, err := modes["unpruned"].SearchRuns(context.Background(), trees, 5, &fst); err != nil {
			t.Fatal(err)
		}
		// a, #1(a b), z, #uw8(b c), nosuchterm, c.
		if pst.Leaves != 6 || fst.Leaves != 6 {
			t.Errorf("%s: Leaves = %d / %d, want the union's 6", m.name, pst.Leaves, fst.Leaves)
		}
		if pst.PostingsAdvanced+pst.DocsSkipped != fst.PostingsAdvanced {
			t.Errorf("%s: advanced %d + skipped %d != union postings mass %d",
				m.name, pst.PostingsAdvanced, pst.DocsSkipped, fst.PostingsAdvanced)
		}
		if fst.DocsSkipped != 0 || fst.BoundEvaluations != 0 {
			t.Errorf("%s: the exhaustive pass reported pruning work: %v", m.name, fst)
		}
		var separate int64
		for _, q := range trees {
			_, st := modes["forced"].SearchWithStats(q, 5)
			separate += st.CandidatesExamined
		}
		if pst.CandidatesExamined >= separate {
			t.Errorf("%s: one pass scored %d candidates, the separate runs %d together", m.name, pst.CandidatesExamined, separate)
		}
	}
}

// TestSearchRunsEdges: k <= 0 and an empty tree list answer without
// evaluating; a cancelled context fails the pass.
func TestSearchRunsEdges(t *testing.T) {
	s := NewSearcher(buildSkewedIndex(100, 3))
	trees := runTrees([4]float64{1, 1, 1, 1}, -1)
	for _, k := range []int{0, -1} {
		got, err := s.SearchRuns(context.Background(), trees, k, nil)
		if err != nil || len(got) != len(trees) || got[0] != nil {
			t.Fatalf("k=%d: %v, %v", k, got, err)
		}
	}
	if got, err := s.SearchRuns(context.Background(), nil, 10, nil); err != nil || len(got) != 0 {
		t.Fatalf("no trees: %v, %v", got, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := s.SearchRuns(ctx, trees, 10, nil); err == nil || got != nil {
		t.Fatalf("cancelled: %v, %v", got, err)
	}
}

// FuzzSearchRunsParity fuzzes corpus shape, model, pruning, k, the
// runs' weights and which run is empty, asserting each run of the one
// pass equals the exhaustive evaluation of its tree alone, score bits
// included. The seed corpus is testdata/fuzz/FuzzSearchRunsParity.
func FuzzSearchRunsParity(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, docs, kk, model, flags uint8, w1, w2, w3, w4 float64) {
		if docs == 0 {
			docs = 1
		}
		k := int(kk)
		if k == 0 {
			k = 1
		}
		// flatten drops non-positive weights; clamp into range so the
		// fuzzer explores weights rather than empty trees.
		clamp := func(w float64) float64 {
			if !(w > 1e-6 && w < 1e6) {
				return 1
			}
			return w
		}
		ix := buildSkewedIndex(int(docs), int(seed))
		m := pruningModels[int(model)%len(pruningModels)]
		modes, full := runsSearchers(ix, m.model, m.params, m.mu)
		s := modes["unpruned"]
		if flags&1 != 0 {
			s = modes["forced"]
		}
		trees := runTrees([4]float64{clamp(w1), clamp(w2), clamp(w3), clamp(w4)}, int(flags>>1)%4)
		assertRunsMatchSeparate(t, m.name, s, full, trees, k)
	})
}
