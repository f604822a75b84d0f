package search

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/index"
)

var plain = analysis.Analyzer{}

func buildIndex(docs ...string) *index.Index { return monoSearcher(textsOf(docs...)).Index() }

// handDirichlet computes the reference leaf score by hand.
func handDirichlet(tf, docLen float64, collProb, mu float64) float64 {
	return math.Log((tf + mu*collProb) / (docLen + mu))
}

func TestSingleTermScore(t *testing.T) {
	ix := buildIndex("a a b", "b c")
	s := NewSearcher(ix)
	s.Mu = 100
	res := rank(t, s, Term{Text: "a"}, 10)
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1 (only D0 contains 'a')", len(res))
	}
	collProb := 2.0 / 5.0
	want := handDirichlet(2, 3, collProb, 100)
	if math.Abs(res[0].Score-want) > 1e-12 {
		t.Errorf("score = %v, want %v", res[0].Score, want)
	}
}

func TestCombineEqualsSumOfLogsScaled(t *testing.T) {
	ix := buildIndex("a b c d", "a x y z")
	s := NewSearcher(ix)
	s.Mu = 50
	q := Combine(Term{Text: "a"}, Term{Text: "b"})
	res := rank(t, s, q, 10)
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	// D0 contains both terms and must rank first.
	if res[0].Name != "D0" {
		t.Errorf("top doc = %s, want D0", res[0].Name)
	}
	// Hand-compute D0's score: equal weights normalise to 1/2 each.
	pa := 2.0 / 8.0 // 'a' appears twice in collection of 8 tokens
	pb := 1.0 / 8.0
	want := 0.5*handDirichlet(1, 4, pa, 50) + 0.5*handDirichlet(1, 4, pb, 50)
	if math.Abs(res[0].Score-want) > 1e-12 {
		t.Errorf("score = %v, want %v", res[0].Score, want)
	}
}

func TestWeightNormalisation(t *testing.T) {
	ix := buildIndex("a b", "a a q")
	s := NewSearcher(ix)
	// #weight(2 a 1 b) — weights 2:1 normalise to 2/3, 1/3; scaling all
	// weights by a constant must not change the ranking or the scores.
	q1 := Weight([]float64{2, 1}, []Node{Term{Text: "a"}, Term{Text: "b"}})
	q2 := Weight([]float64{200, 100}, []Node{Term{Text: "a"}, Term{Text: "b"}})
	r1 := rank(t, s, q1, 10)
	r2 := rank(t, s, q2, 10)
	if len(r1) != len(r2) {
		t.Fatal("result counts differ")
	}
	for i := range r1 {
		if r1[i].Name != r2[i].Name || math.Abs(r1[i].Score-r2[i].Score) > 1e-12 {
			t.Errorf("rank %d: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestNestedWeights(t *testing.T) {
	ix := buildIndex("a b c", "c d e")
	s := NewSearcher(ix)
	// #weight(1 #combine(a b) 1 c) == flatten to a:0.25 b:0.25 c:0.5
	nested := Weight(
		[]float64{1, 1},
		[]Node{Combine(Term{Text: "a"}, Term{Text: "b"}), Term{Text: "c"}},
	)
	flat := Weight(
		[]float64{0.25, 0.25, 0.5},
		[]Node{Term{Text: "a"}, Term{Text: "b"}, Term{Text: "c"}},
	)
	rn := rank(t, s, nested, 10)
	rf := rank(t, s, flat, 10)
	if len(rn) != len(rf) {
		t.Fatal("result counts differ")
	}
	for i := range rn {
		if rn[i].Name != rf[i].Name || math.Abs(rn[i].Score-rf[i].Score) > 1e-12 {
			t.Errorf("rank %d differs: %v vs %v", i, rn[i], rf[i])
		}
	}
}

func TestPhraseScoring(t *testing.T) {
	ix := buildIndex("cable car rides", "car cable maintenance", "cable car cable car")
	s := NewSearcher(ix)
	res := rank(t, s, Phrase{Terms: []string{"cable", "car"}}, 10)
	if len(res) != 2 {
		t.Fatalf("phrase matched %d docs, want 2", len(res))
	}
	// D2 has phrase tf 2 and should rank above D0 (tf 1, similar length).
	if res[0].Name != "D2" {
		t.Errorf("top = %s, want D2", res[0].Name)
	}
}

func TestEmptyAndOOVQueries(t *testing.T) {
	ix := buildIndex("a b")
	s := NewSearcher(ix)
	if res := rank(t, s, Combine(), 10); res != nil {
		t.Error("empty query should return nil")
	}
	if res := rank(t, s, Term{Text: ""}, 10); res != nil {
		t.Error("empty term should return nil")
	}
	if res := rank(t, s, Term{Text: "zzz"}, 10); len(res) != 0 {
		t.Error("OOV term matches nothing")
	}
	if res := rank(t, s, Term{Text: "a"}, 0); res != nil {
		t.Error("k=0 should return nil")
	}
}

func TestOOVChildDropsOut(t *testing.T) {
	ix := buildIndex("a b", "b c")
	s := NewSearcher(ix)
	// A weighted node with one OOV child must behave like the query
	// without it (the OOV child is empty and its weight renormalises).
	with := Weight([]float64{1, 1}, []Node{Term{Text: "a"}, Term{Text: "zzz"}})
	without := Term{Text: "a"}
	rw := rank(t, s, with, 10)
	ro := rank(t, s, without, 10)
	if len(rw) != len(ro) {
		t.Fatalf("result counts differ: %d vs %d", len(rw), len(ro))
	}
	for i := range rw {
		if rw[i].Name != ro[i].Name {
			t.Errorf("rank %d: %s vs %s", i, rw[i].Name, ro[i].Name)
		}
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	ix := buildIndex("t x", "t y", "t z")
	s := NewSearcher(ix)
	res := rank(t, s, Term{Text: "t"}, 10)
	if len(res) != 3 {
		t.Fatal("want 3 results")
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Score == res[i].Score && res[i-1].Doc > res[i].Doc {
			t.Error("ties must break by ascending DocID")
		}
	}
}

func TestTopKTruncation(t *testing.T) {
	b := index.NewBuilder(plain)
	for i := 0; i < 50; i++ {
		b.Add("Doc"+strings.Repeat("x", i%5)+string(rune('a'+i%26)), "common term here")
	}
	ix := b.Build()
	s := NewSearcher(ix)
	if res := rank(t, s, Term{Text: "common"}, 7); len(res) != 7 {
		t.Errorf("k=7 returned %d", len(res))
	}
}

// TestExplainScoreMatchesSearch: Explain's score of every ranked
// document is the evaluator's, in memory and over the index's v2 file at
// one posting per block, where term leaves stream and Explain reads
// their tf through a block cursor.
func TestExplainScoreMatchesSearch(t *testing.T) {
	mem := buildIndex("a b c", "a a b", "x y z", "b a", "c c a b")
	q := Weight([]float64{2, 1, 1}, []Node{
		Combine(Term{Text: "a"}, Term{Text: "b"}),
		Phrase{Terms: []string{"a", "b"}},
		Unordered{Terms: []string{"b", "c"}, Width: 4},
	})
	for name, ix := range map[string]*index.Index{"memory": mem, "v2": v2Copy(t, mem, 1)} {
		s := NewSearcher(ix)
		res := rank(t, s, q, 10)
		if len(res) != 4 {
			t.Fatalf("%s: %d results, want 4", name, len(res))
		}
		for _, r := range res {
			if got := s.Explain(q, r.Doc).Score; math.Abs(got-r.Score) > 1e-12 {
				t.Errorf("%s: Explain(%s).Score = %v, Search score %v", name, r.Name, got, r.Score)
			}
		}
	}
}

func TestQueryStringRendering(t *testing.T) {
	q := Weight(
		[]float64{2, 1},
		[]Node{
			Combine(Term{Text: "cable"}, Term{Text: "car"}),
			Phrase{Terms: []string{"san", "francisco"}},
		},
	)
	s := q.String()
	for _, want := range []string{"#weight(", "#1(san francisco)", "cable", "car"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestBagOfWordsAndTitlePhrase(t *testing.T) {
	a := analysis.Standard()
	q := BagOfWords(a, "The Running Cars")
	if len(q.Children) != 2 { // "the" removed, running→run cars→car
		t.Errorf("BagOfWords children = %d", len(q.Children))
	}
	// Title leaves are built from the analysed title, as the expander
	// builds them.
	if n := PhraseOfTerms(a.AnalyzeTerms("Cable Car")); n.String() != "#1(cabl car)" {
		t.Errorf("PhraseOfTerms = %q", n.String())
	}
	if n := PhraseOfTerms(a.AnalyzeTerms("Funicular")); n.String() != "funicular" {
		t.Errorf("single-word title should be a Term, got %q", n.String())
	}
	if !IsEmpty(PhraseOfTerms(a.AnalyzeTerms("the of and"))) {
		t.Error("all-stopword title should be empty")
	}
}

func TestIsEmpty(t *testing.T) {
	if !IsEmpty(Term{}) || !IsEmpty(Phrase{}) || !IsEmpty(Weighted{}) {
		t.Error("zero nodes should be empty")
	}
	if IsEmpty(Term{Text: "x"}) {
		t.Error("non-empty term")
	}
	if !IsEmpty(Weight([]float64{0}, []Node{Term{Text: "x"}})) {
		t.Error("zero-weight child should leave node empty")
	}
	if IsEmpty(Weight([]float64{0, 1}, []Node{Term{Text: "x"}, Term{Text: "y"}})) {
		t.Error("positive-weight non-empty child should make node non-empty")
	}
}

// Property: adding a matching term to a query never *lowers* a document's
// rank relative to a document that lacks the term, all else equal.
func TestMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		words := []string{"a", "b", "c", "d", "e"}
		b := index.NewBuilder(plain)
		n := 5 + rng.Intn(10)
		for d := 0; d < n; d++ {
			var sb strings.Builder
			for i := 0; i < 5; i++ {
				sb.WriteString(words[rng.Intn(len(words))] + " ")
			}
			b.Add("P"+string(rune('a'+d)), sb.String())
		}
		ix := b.Build()
		s := NewSearcher(ix)
		res := rank(t, s, Term{Text: "a"}, n)
		// Every returned doc must actually contain 'a' and scores must be
		// non-increasing.
		p := ix.PostingsFor("a")
		if p == nil {
			return len(res) == 0
		}
		contains := map[index.DocID]bool{}
		for _, d := range p.Docs {
			contains[d] = true
		}
		prev := math.Inf(1)
		for _, r := range res {
			if !contains[r.Doc] {
				return false
			}
			if r.Score > prev {
				return false
			}
			prev = r.Score
		}
		return len(res) == len(p.Docs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSearchWithStatsCounters sanity-checks the instrumentation: the
// DAAT counters must reflect the actual postings traffic and heap
// activity of a known query.
func TestSearchWithStatsCounters(t *testing.T) {
	ix := buildIndex("a b", "a c", "a d", "b c")
	s := NewSearcher(ix)
	// The exact counts below describe exhaustive scoring (every
	// candidate scored, every posting consumed); the pruned path's
	// counters are held by TestParity.
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
	if got := rank(t, s, Combine(Term{Text: "zz"}, Term{Text: "yy"}), 10); got != nil {
		t.Errorf("all-OOV query: got %v", got)
	}
}
