package search

import "testing"

// TestModelParamsDefaults: a zero or negative Mu ranks, and explains,
// as DefaultMu does.
func TestModelParamsDefaults(t *testing.T) {
	ix := skewedIndex(80, 3)
	q := Combine(Term{Text: "a"}, Term{Text: "e"})
	def := NewSearcher(ix)
	def.Mu = DefaultMu
	want := rank(t, def, q, 20)
	for _, mu := range []float64{0, -5} {
		s := NewSearcher(ix)
		s.Mu = mu
		sameResults(t, "non-positive mu", rank(t, s, q, 20), want)
		if ex := s.Explain(q, want[0].Doc); ex.Score != want[0].Score {
			t.Errorf("mu=%v: explained score %v, ranked %v", mu, ex.Score, want[0].Score)
		}
	}
}

// TestModelsAgreeOnStrongMatch: at the default μ and at a small one the
// clearly better document ranks first.
func TestModelsAgreeOnStrongMatch(t *testing.T) {
	ix := buildIndex(
		"cable cable cable car",
		"cable mention once somewhere in here",
		"nothing relevant at all",
	)
	for _, m := range parityModels {
		s := NewSearcher(ix)
		s.Mu = m.mu
		res := rank(t, s, Term{Text: "cable"}, 10)
		if len(res) != 2 {
			t.Fatalf("%s: results = %v", m.name, res)
		}
		if res[0].Name != "D0" {
			t.Errorf("%s: top = %s", m.name, res[0].Name)
		}
	}
}

// TestExplainHonoursModel: Explain scores with the searcher's μ, so its
// total is the ranked score, bit for bit.
func TestExplainHonoursModel(t *testing.T) {
	ix := buildIndex("a b", "a c")
	s := NewSearcher(ix)
	s.Mu = 50
	q := Combine(Term{Text: "a"}, Term{Text: "b"})
	res := rank(t, s, q, 10)
	for _, r := range res {
		ex := s.Explain(q, r.Doc)
		if ex.Score != r.Score {
			t.Errorf("explain %v != search %v", ex.Score, r.Score)
		}
	}
}
