package search

import (
	"fmt"
	"math/rand"
	"testing"
)

// diffOracle evaluates q under every pruning mode of the top-k loop —
// the cost model's choice, pruning forced, pruning off — and demands the
// oracle's ranking, score bits included, from each.
func diffOracle(t *testing.T, s *Searcher, label string, q Node, k int) {
	t.Helper()
	want := OracleRank(s, q, k)
	for _, e := range []struct {
		name                string
		forcePrune, noPrune bool
	}{{"cost-model", false, false}, {"pruned", true, false}, {"exhaustive", false, true}} {
		ev := *s
		ev.forcePrune, ev.DisablePruning = e.forcePrune, e.noPrune
		requireSameResults(t, rank(t, &ev, q, k), want, label+"/"+e.name)
	}
}

// TestDAATMatchesOracleCrafted covers the structured cases the random
// sweep might miss: exact ties (identical documents), OOV leaves that
// carry only background mass, phrase and window leaves, and k larger
// than the candidate set.
func TestDAATMatchesOracleCrafted(t *testing.T) {
	ix := buildIndex(
		"a b c a",
		"a b c a", // exact duplicate of D0: guaranteed score tie
		"b c d",
		"c d e f g",
		"a a a a a a",
		"x y z",
	)
	queries := map[string]Node{
		"single term":  Term{Text: "a"},
		"tied docs":    Combine(Term{Text: "a"}, Term{Text: "b"}, Term{Text: "c"}),
		"oov leaf":     Combine(Term{Text: "a"}, Term{Text: "notindexed"}),
		"all oov":      Combine(Term{Text: "qq"}, Term{Text: "ww"}),
		"phrase":       Phrase{Terms: []string{"a", "b"}},
		"window":       Unordered{Terms: []string{"c", "d"}, Width: 3},
		"nested":       Weight([]float64{3, 1}, []Node{Combine(Term{Text: "a"}, Term{Text: "d"}), Phrase{Terms: []string{"b", "c"}}}),
		"zero weights": Weight([]float64{0, 2}, []Node{Term{Text: "a"}, Term{Text: "c"}}),
	}
	for _, model := range []Model{ModelDirichlet, ModelJelinekMercer, ModelBM25} {
		s := NewSearcher(ix)
		s.Model = model
		s.Mu = 300
		for name, q := range queries {
			for _, k := range []int{1, 2, 3, 100} {
				diffOracle(t, s, fmt.Sprintf("%v/%s/k=%d", model, name, k), q, k)
			}
		}
	}
}

// TestDAATMatchesOracleRandom sweeps random corpora and random weighted
// queries across all three retrieval models.
func TestDAATMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for trial := 0; trial < 40; trial++ {
		nDocs := 2 + rng.Intn(30)
		docs := make([]string, nDocs)
		for d := range docs {
			n := 1 + rng.Intn(12)
			var words []string
			for i := 0; i < n; i++ {
				words = append(words, vocab[rng.Intn(len(vocab))])
			}
			docs[d] = join(words)
		}
		ix := buildIndex(docs...)
		var children []Child
		nLeaves := 1 + rng.Intn(6)
		for i := 0; i < nLeaves; i++ {
			var n Node
			switch rng.Intn(4) {
			case 0:
				n = Term{Text: vocab[rng.Intn(len(vocab))]}
			case 1:
				n = Term{Text: "oov-term"} // never indexed
			case 2:
				n = Phrase{Terms: []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]}}
			default:
				n = Unordered{Terms: []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]}, Width: 2 + rng.Intn(4)}
			}
			children = append(children, Child{Weight: float64(1 + rng.Intn(5)), Node: n})
		}
		q := Weighted{Children: children}
		model := []Model{ModelDirichlet, ModelJelinekMercer, ModelBM25}[trial%3]
		s := NewSearcher(ix)
		s.Model = model
		k := 1 + rng.Intn(nDocs+5)
		diffOracle(t, s, fmt.Sprintf("trial=%d model=%v k=%d", trial, model, k), q, k)
	}
}

func join(words []string) string {
	out := ""
	for i, w := range words {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}

// TestSearchWithStatsCounters sanity-checks the instrumentation: the
// DAAT counters must reflect the actual postings traffic and heap
// activity of a known query.
func TestSearchWithStatsCounters(t *testing.T) {
	ix := buildIndex("a b", "a c", "a d", "b c")
	s := NewSearcher(ix)
	// The exact counts below describe exhaustive scoring (every
	// candidate scored, every posting consumed); the pruned path's
	// counters are asserted in maxscore_test.go.
	s.DisablePruning = true
	q := Combine(Term{Text: "a"}, Term{Text: "b"})
	res, st := rankStats(t, s, q, 2)
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if st.Leaves != 2 {
		t.Errorf("Leaves = %d, want 2", st.Leaves)
	}
	// Candidates: union of docs containing a (D0..D2) or b (D0, D3) = 4.
	if st.CandidatesExamined != 4 {
		t.Errorf("CandidatesExamined = %d, want 4", st.CandidatesExamined)
	}
	// Postings advanced: |postings(a)| + |postings(b)| = 3 + 2 = 5.
	if st.PostingsAdvanced != 5 {
		t.Errorf("PostingsAdvanced = %d, want 5", st.PostingsAdvanced)
	}
	if st.HeapPushes != 2 {
		t.Errorf("HeapPushes = %d, want 2", st.HeapPushes)
	}
	if st.HeapPushes+st.HeapEvictions > st.CandidatesExamined {
		t.Errorf("heap traffic %d exceeds candidates %d", st.HeapPushes+st.HeapEvictions, st.CandidatesExamined)
	}
	if st.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", st.Elapsed)
	}
}

// TestDAATEmptyAndDegenerate pins the edge cases: k<=0, empty queries,
// and queries whose every leaf is OOV (candidates exist only where a
// leaf matched — all-OOV queries rank nothing, for the oracle too).
func TestDAATEmptyAndDegenerate(t *testing.T) {
	ix := buildIndex("a b", "c d")
	s := NewSearcher(ix)
	if got := rank(t, s, Term{Text: "a"}, 0); got != nil {
		t.Errorf("k=0: got %v", got)
	}
	if got := rank(t, s, Weighted{}, 10); got != nil {
		t.Errorf("empty query: got %v", got)
	}
	diffOracle(t, s, "all-oov", Combine(Term{Text: "zz"}, Term{Text: "yy"}), 10)
}
