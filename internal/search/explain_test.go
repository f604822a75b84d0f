package search

import (
	"math"
	"strings"
	"testing"
)

func TestExplainMatchesSearchScore(t *testing.T) {
	ix := buildIndex("a b c", "a a q", "x y z")
	s := NewSearcher(ix)
	q := Weight([]float64{2, 1}, []Node{
		Combine(Term{Text: "a"}, Term{Text: "b"}),
		Phrase{Terms: []string{"a", "b"}},
	})
	res := rank(t, s, q, 10)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	for _, r := range res {
		ex := s.Explain(q, r.Doc)
		if math.Abs(ex.Score-r.Score) > 1e-12 {
			t.Errorf("%s: explain score %v != search score %v", r.Name, ex.Score, r.Score)
		}
	}
}

func TestExplainLeafAttribution(t *testing.T) {
	ix := buildIndex("alpha beta", "alpha gamma")
	s := NewSearcher(ix)
	q := Combine(Term{Text: "alpha"}, Term{Text: "beta"})
	ex := s.Explain(q, 0)
	if len(ex.Leaves) != 2 {
		t.Fatalf("leaves = %d", len(ex.Leaves))
	}
	// Both matched in doc 0; weights equal halves.
	for _, l := range ex.Leaves {
		if l.BackgroundOnly {
			t.Errorf("leaf %s marked background in matching doc", l.Leaf)
		}
		if math.Abs(l.Weight-0.5) > 1e-12 {
			t.Errorf("leaf weight = %f", l.Weight)
		}
	}
	// Doc 1 lacks "beta": that leaf must be background-only and matched
	// leaves must sort first.
	ex = s.Explain(q, 1)
	if ex.Leaves[0].Leaf != "alpha" || ex.Leaves[0].BackgroundOnly {
		t.Errorf("first leaf = %+v, want matched alpha", ex.Leaves[0])
	}
	if ex.Leaves[1].Leaf != "beta" || !ex.Leaves[1].BackgroundOnly {
		t.Errorf("second leaf = %+v, want background beta", ex.Leaves[1])
	}
	// A term repeated at a second weight, as RM3 repeats the user's
	// terms: each leaf's lift is its own, so the heavier one leads.
	ex = s.Explain(Weight([]float64{0.05, 0.5, 0.45}, []Node{Term{Text: "alpha"}, Term{Text: "beta"}, Term{Text: "alpha"}}), 1)
	if ex.Leaves[0].Leaf != "alpha" || ex.Leaves[0].Weight != 0.45 || ex.Leaves[1].Weight != 0.05 {
		t.Errorf("leaves %+v, want alpha w=0.45 then alpha w=0.05", ex.Leaves[:2])
	}
}

func TestExplainString(t *testing.T) {
	ix := buildIndex("alpha beta")
	s := NewSearcher(ix)
	out := s.Explain(Term{Text: "alpha"}, 0).String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "tf=1") {
		t.Errorf("rendering = %q", out)
	}
}
