package search

import (
	"math"
	"testing"
)

func TestModelStrings(t *testing.T) {
	if ModelDirichlet.String() != "dirichlet" || ModelJelinekMercer.String() != "jelinek-mercer" ||
		ModelBM25.String() != "bm25" || Model(99).String() != "unknown" {
		t.Error("model names wrong")
	}
}

func TestModelParamsDefaults(t *testing.T) {
	p := ModelParams{}.withDefaults()
	if p.Mu != DefaultMu || p.Lambda != 0.4 || p.K1 != 1.2 || p.B != 0.75 {
		t.Errorf("defaults = %+v", p)
	}
	p = ModelParams{Mu: 10, Lambda: 0.9, K1: 2, B: 0.5}.withDefaults()
	if p.Mu != 10 || p.Lambda != 0.9 || p.K1 != 2 || p.B != 0.5 {
		t.Errorf("explicit params overridden: %+v", p)
	}
	// Out-of-range λ and B fall back.
	p = ModelParams{Lambda: 1.5, B: 2}.withDefaults()
	if p.Lambda != 0.4 || p.B != 0.75 {
		t.Errorf("range guard failed: %+v", p)
	}
}

func TestJelinekMercerScore(t *testing.T) {
	ix := buildIndex("a a b", "b c")
	s := NewSearcher(ix)
	s.Model = ModelJelinekMercer
	s.Params.Lambda = 0.5
	res := rank(t, s, Term{Text: "a"}, 10)
	if len(res) != 1 {
		t.Fatalf("results = %v", res)
	}
	// (1-λ)·tf/|D| + λ·P(a|C) = 0.5·(2/3) + 0.5·(2/5)
	want := math.Log(0.5*(2.0/3) + 0.5*(2.0/5))
	if math.Abs(res[0].Score-want) > 1e-12 {
		t.Errorf("JM score = %v, want %v", res[0].Score, want)
	}
}

func TestBM25Score(t *testing.T) {
	ix := buildIndex("a a b", "b c", "c d")
	s := NewSearcher(ix)
	s.Model = ModelBM25
	res := rank(t, s, Term{Text: "a"}, 10)
	if len(res) != 1 {
		t.Fatalf("results = %v", res)
	}
	// idf = ln((3-1+0.5)/(1+0.5) + 1) = ln(8/3); tf part with k1=1.2,
	// b=0.75, |D|=3, avgdl=7/3.
	idf := math.Log((3-1+0.5)/(1+0.5) + 1)
	tfPart := (2.0 * 2.2) / (2.0 + 1.2*(1-0.75+0.75*3/(7.0/3)))
	want := idf * tfPart
	if math.Abs(res[0].Score-want) > 1e-12 {
		t.Errorf("BM25 score = %v, want %v", res[0].Score, want)
	}
}

func TestBM25IgnoresNonMatching(t *testing.T) {
	ix := buildIndex("a b", "c d")
	s := NewSearcher(ix)
	s.Model = ModelBM25
	// Query a OR c: each doc matches one leaf; the other contributes 0
	// (no background mass), so both docs score > -inf and rank by their
	// own match.
	res := rank(t, s, Combine(Term{Text: "a"}, Term{Text: "c"}), 10)
	if len(res) != 2 {
		t.Fatalf("results = %v", res)
	}
	for _, r := range res {
		if math.IsInf(r.Score, 0) || r.Score <= 0 {
			t.Errorf("BM25 score = %v", r.Score)
		}
	}
}

func TestModelsAgreeOnStrongMatch(t *testing.T) {
	// All three models must put the clearly better document first.
	ix := buildIndex(
		"cable cable cable car",
		"cable mention once somewhere in here",
		"nothing relevant at all",
	)
	for _, m := range []Model{ModelDirichlet, ModelJelinekMercer, ModelBM25} {
		s := NewSearcher(ix)
		s.Model = m
		res := rank(t, s, Term{Text: "cable"}, 10)
		if len(res) != 2 {
			t.Fatalf("%v: results = %v", m, res)
		}
		if res[0].Name != "D0" {
			t.Errorf("%v: top = %s", m, res[0].Name)
		}
	}
}

func TestExplainHonoursModel(t *testing.T) {
	ix := buildIndex("a b", "a c")
	s := NewSearcher(ix)
	s.Model = ModelBM25
	q := Combine(Term{Text: "a"}, Term{Text: "b"})
	res := rank(t, s, q, 10)
	for _, r := range res {
		ex := s.Explain(q, r.Doc)
		if math.Abs(ex.Score-r.Score) > 1e-12 {
			t.Errorf("BM25 explain %v != search %v", ex.Score, r.Score)
		}
	}
}

func TestPhraseLeafUnderBM25(t *testing.T) {
	ix := buildIndex("cable car here", "car cable there", "cable car cable car")
	s := NewSearcher(ix)
	s.Model = ModelBM25
	res := rank(t, s, Phrase{Terms: []string{"cable", "car"}}, 10)
	if len(res) != 2 {
		t.Fatalf("results = %v", res)
	}
	if res[0].Name != "D2" { // phrase tf 2 saturates above tf 1
		t.Errorf("top = %s", res[0].Name)
	}
}
