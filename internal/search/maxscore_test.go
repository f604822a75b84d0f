package search

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/index"
)

// pruningModels is the model matrix every pruning differential runs over.
var pruningModels = []struct {
	name   string
	model  Model
	params ModelParams
	mu     float64
}{
	{"dirichlet", ModelDirichlet, ModelParams{}, DefaultMu},
	{"dirichlet-small-mu", ModelDirichlet, ModelParams{}, 50},
	{"jelinek-mercer", ModelJelinekMercer, ModelParams{Lambda: 0.4}, 0},
	{"bm25", ModelBM25, ModelParams{K1: 1.2, B: 0.75}, 0},
}

// dirichletModels are pruningModels' Dirichlet rows. Dirichlet is the
// one model pruned, so tests that assert pruning work run over these.
var dirichletModels = pruningModels[:2]

// prunedPair returns two searchers over ix differing only in pruning.
// Both run the one top-k loop, so full is no reference for pruned's
// rankings: those are checked against OracleRank(full, …), which shares
// no evaluator code. full's own counters are the exhaustive mode's.
func prunedPair(ix *index.Index, model Model, params ModelParams, mu float64) (pruned, full *Searcher) {
	pruned = NewSearcher(ix)
	full = NewSearcher(ix)
	for _, s := range []*Searcher{pruned, full} {
		s.Model = model
		s.Params = params
		s.Mu = mu
	}
	full.DisablePruning = true
	// The differential corpora are tiny and the queries short — exactly
	// what the cost model scores exhaustively. Force pruning so the
	// differentials actually exercise it.
	pruned.forcePrune = true
	return pruned, full
}

// assertIdenticalResults demands exact equality — same docs, same names,
// same float bits — which is the pruning contract.
func assertIdenticalResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: got (%d,%q,%v) != want (%d,%q,%v)",
				label, i, got[i].Doc, got[i].Name, got[i].Score,
				want[i].Doc, want[i].Name, want[i].Score)
		}
	}
}

// pruningQueries exercises every leaf kind, OOV background-only leaves,
// weighted trees, and duplicate terms.
func pruningQueries() map[string]Node {
	return map[string]Node{
		"single":      Term{Text: "a"},
		"rare":        Term{Text: "z"},
		"oov":         Term{Text: "nosuchterm"},
		"two":         Combine(Term{Text: "a"}, Term{Text: "b"}),
		"many":        Combine(Term{Text: "a"}, Term{Text: "b"}, Term{Text: "c"}, Term{Text: "z"}),
		"with-oov":    Combine(Term{Text: "a"}, Term{Text: "nosuchterm"}),
		"dup-term":    Combine(Term{Text: "a"}, Term{Text: "a"}),
		"phrase":      Phrase{Terms: []string{"a", "b"}},
		"window":      Unordered{Terms: []string{"b", "c"}, Width: 8},
		"weighted":    Weight([]float64{0.7, 0.2, 0.1}, []Node{Term{Text: "a"}, Term{Text: "b"}, Phrase{Terms: []string{"a", "c"}}}),
		"skew-weight": Weight([]float64{0.99, 0.01}, []Node{Term{Text: "z"}, Term{Text: "a"}}),
	}
}

// buildSkewedIndex builds a corpus with a heavily skewed term
// distribution ("a" everywhere, "z" rare, varied lengths) so pruning
// has real opportunities even at small scale.
func buildSkewedIndex(docs, seed int) *index.Index {
	rng := rand.New(rand.NewSource(int64(seed)))
	b := index.NewBuilder(plain)
	vocab := []string{"a", "a", "a", "a", "b", "b", "c", "c", "d", "e", "f", "g"}
	for d := 0; d < docs; d++ {
		n := 2 + rng.Intn(30)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(vocab[rng.Intn(len(vocab))])
			sb.WriteByte(' ')
		}
		if rng.Intn(17) == 0 {
			sb.WriteString("z ")
		}
		b.Add(fmt.Sprintf("D%04d", d), sb.String())
	}
	return b.Build()
}

// TestMaxScoreMatchesDAATCrafted: the core differential — pruned top-k
// bit-identical to the oracle across models, queries and k.
func TestMaxScoreMatchesDAATCrafted(t *testing.T) {
	corpora := map[string]*index.Index{
		"tiny": buildIndex("a b c", "a a b", "b c d", "a", "c d z", "a b c d z"),
		// Exact ties: duplicated docs make equal scores that must
		// tie-break identically on DocID through the pruned path.
		"ties":    buildIndex("a b", "a b", "a b", "a b", "b c", "b c", "z"),
		"skewed":  buildSkewedIndex(300, 3),
		"lengths": buildIndex("a", "a a a a a a a a a a a a", "a b", "b", "z a"),
	}
	for cname, ix := range corpora {
		for _, m := range pruningModels {
			pruned, full := prunedPair(ix, m.model, m.params, m.mu)
			for qname, q := range pruningQueries() {
				// One full ranking; every k below is a prefix of it.
				want := OracleRank(full, q, ix.NumDocs())
				for _, k := range []int{1, 2, 3, 10, 1000} {
					got := rank(t, pruned, q, k)
					assertIdenticalResults(t, fmt.Sprintf("%s/%s/%s k=%d", cname, m.name, qname, k), got, want[:min(k, len(want))])
				}
			}
		}
	}
}

// TestMaxScoreMatchesDAATRandom: random corpora and random weighted
// queries, still exact equality.
func TestMaxScoreMatchesDAATRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	terms := []string{"a", "b", "c", "d", "e", "z"}
	for trial := 0; trial < 40; trial++ {
		ix := buildSkewedIndex(50+rng.Intn(250), trial)
		nq := 1 + rng.Intn(4)
		ws := make([]float64, nq)
		ns := make([]Node, nq)
		for i := range ns {
			ws[i] = 0.05 + rng.Float64()
			ns[i] = Term{Text: terms[rng.Intn(len(terms))]}
		}
		q := Weight(ws, ns)
		k := 1 + rng.Intn(30)
		m := pruningModels[rng.Intn(len(pruningModels))]
		pruned, full := prunedPair(ix, m.model, m.params, m.mu)
		want := OracleRank(full, q, k)
		got := rank(t, pruned, q, k)
		assertIdenticalResults(t, fmt.Sprintf("trial %d %s k=%d", trial, m.name, k), got, want)
	}
}

// unionMass is the postings mass of q's distinct leaves over s's index,
// counted through Explain: each document adds one per distinct leaf
// name it matches, so a leaf the query repeats counts once.
func unionMass(s *Searcher, q Node) int64 {
	var mass int64
	for d := 0; d < s.Index().NumDocs(); d++ {
		seen := map[string]bool{}
		for _, l := range s.Explain(q, index.DocID(d)).Leaves {
			if l.TF > 0 && !seen[l.Leaf] {
				seen[l.Leaf] = true
				mass++
			}
		}
	}
	return mass
}

// TestMaxScoreCounterInvariants pins the accounting identity: every
// postings entry of the query's distinct leaves is either consumed
// (PostingsAdvanced) or skipped (DocsSkipped), so their sum is the union
// mass in either mode — the dup-term row's repeated leaf counts once;
// pruned candidates are a subset of the full candidate set; and the
// heap sees the identical accepted sequence (same pushes/evictions).
func TestMaxScoreCounterInvariants(t *testing.T) {
	ix := buildSkewedIndex(400, 7)
	for _, m := range pruningModels {
		for qname, q := range pruningQueries() {
			pruned, full := prunedPair(ix, m.model, m.params, m.mu)
			_, pst := rankStats(t, pruned, q, 10)
			_, fst := rankStats(t, full, q, 10)
			label := fmt.Sprintf("%s/%s", m.name, qname)
			mass := unionMass(full, q)
			if pst.PostingsAdvanced+pst.DocsSkipped != mass || fst.PostingsAdvanced != mass {
				t.Errorf("%s: advanced %d + skipped %d (exhaustive: %d) != union postings mass %d",
					label, pst.PostingsAdvanced, pst.DocsSkipped, fst.PostingsAdvanced, mass)
			}
			if pst.CandidatesExamined > fst.CandidatesExamined {
				t.Errorf("%s: pruned candidates %d > full %d", label, pst.CandidatesExamined, fst.CandidatesExamined)
			}
			if pst.HeapPushes != fst.HeapPushes || pst.HeapEvictions != fst.HeapEvictions {
				t.Errorf("%s: heap traffic (%d,%d) != full (%d,%d)",
					label, pst.HeapPushes, pst.HeapEvictions, fst.HeapPushes, fst.HeapEvictions)
			}
			if fst.DocsSkipped != 0 || fst.BoundEvaluations != 0 {
				t.Errorf("%s: exhaustive path reported pruning work: %+v", label, fst)
			}
		}
	}
	// The mode rule: only Dirichlet prunes. An expanded query with
	// enough leaves for the cost model, forced or not, ranks
	// exhaustively under Jelinek-Mercer and BM25.
	expanded := Combine(Term{Text: "z"}, Term{Text: "a"}, Term{Text: "b"}, Term{Text: "c"},
		Term{Text: "d"}, Term{Text: "e"}, Term{Text: "f"}, Term{Text: "g"},
		Phrase{Terms: []string{"a", "b"}}, Unordered{Terms: []string{"b", "c"}, Width: 8})
	for _, m := range pruningModels {
		for _, forced := range []bool{true, false} {
			pruned, full := prunedPair(ix, m.model, m.params, m.mu)
			pruned.forcePrune = forced
			got, pst := rankStats(t, pruned, expanded, 10)
			label := fmt.Sprintf("%s/expanded forced=%v", m.name, forced)
			assertIdenticalResults(t, label, got, OracleRank(full, expanded, 10))
			if m.model == ModelDirichlet {
				if pst.DocsSkipped == 0 {
					t.Errorf("%s: Dirichlet skipped nothing: %+v", label, pst)
				}
				continue
			}
			if mass := unionMass(full, expanded); pst.DocsSkipped != 0 || pst.BoundEvaluations != 0 || pst.PostingsAdvanced != mass {
				t.Errorf("%s: not exhaustive (union postings mass %d): %+v", label, mass, pst)
			}
		}
	}
}

// TestMaxScoreActuallyPrunes guards against the evaluator silently
// degenerating into always-essential: on a skewed corpus with a small k
// the Dirichlet path must skip a meaningful share of postings.
func TestMaxScoreActuallyPrunes(t *testing.T) {
	ix := buildSkewedIndex(2000, 11)
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
	ix := buildSkewedIndex(100, 17)
	s := NewSearcher(ix)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := evalOne(ctx, s, Term{Text: "a"}, 10, EvalOptions{})
	if err == nil || res != nil {
		t.Fatalf("cancelled pruned search: res=%v err=%v", res, err)
	}
}

// TestShardedPruning: per-shard pruning with shared-nothing thresholds
// stays bit-identical to the oracle across shard counts; the pruned
// sharded stats keep the per-shard-sum convention and the postings
// accounting identity over the query's distinct leaves.
func TestShardedPruning(t *testing.T) {
	ix := buildSkewedIndex(600, 19)
	for _, m := range pruningModels {
		full := NewSearcher(ix)
		full.Model, full.Params, full.Mu = m.model, m.params, m.mu
		for qname, q := range pruningQueries() {
			want := OracleRank(full, q, ix.NumDocs())
			mass := unionMass(full, q)
			for _, S := range []int{1, 2, 4, 8} {
				for _, k := range []int{1, 5, 25} {

					ss := NewShardedSearcher(index.NewSharded(ix, S))
					ss.Model, ss.Params, ss.Mu = m.model, m.params, m.mu
					got, st, err := ss.SearchWithStatsContext(context.Background(), q, k)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/S=%d/%s k=%d", m.name, S, qname, k)
					assertIdenticalResults(t, label, got, want[:min(k, len(want))])

					var skipped int64
					for _, sh := range st.Shards {
						skipped += sh.DocsSkipped
					}
					if skipped != st.DocsSkipped {
						t.Fatalf("%s: per-shard skips %d != aggregate %d", label, skipped, st.DocsSkipped)
					}
					if st.PostingsAdvanced+st.DocsSkipped != mass {
						t.Fatalf("%s: sharded advanced %d + skipped %d != union postings mass %d",
							label, st.PostingsAdvanced, st.DocsSkipped, mass)
					}
				}
			}
		}
	}
}
