package prf

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/index"
	"repro/internal/search"
)

func searcher(docs ...string) *search.Searcher {
	b := index.NewBuilder(analysis.Analyzer{})
	for i, d := range docs {
		b.Add("D"+string(rune('a'+i)), d)
	}
	return search.NewSearcher(b.Build())
}

func TestRelevanceModelPicksFeedbackTerms(t *testing.T) {
	s := searcher(
		"query apple banana",
		"query apple cherry",
		"query apple date",
		"unrelated words entirely",
	)
	terms, err := RelevanceModel(context.Background(), s, s.Index(), search.Term{Text: "query"}, Config{FbDocs: 3, FbTerms: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 3 {
		t.Fatalf("terms = %+v", terms)
	}
	// "query" and "apple" appear in every feedback doc and must rank at
	// the top of the model.
	top := map[string]bool{terms[0].Term: true, terms[1].Term: true}
	if !top["query"] || !top["apple"] {
		t.Errorf("top feedback terms = %+v, want query+apple", terms)
	}
	// Weights must be sorted descending.
	for i := 1; i < len(terms); i++ {
		if terms[i-1].Weight < terms[i].Weight {
			t.Errorf("weights not sorted: %+v", terms)
		}
	}
}

func TestRelevanceModelEmptyOnNoResults(t *testing.T) {
	s := searcher("a b c")
	if terms, err := RelevanceModel(context.Background(), s, s.Index(), search.Term{Text: "zzz"}, DefaultConfig()); terms != nil || err != nil {
		t.Errorf("expected nil for retrieving nothing, got %+v, %v", terms, err)
	}
}

// TestFeedbackErrorIsReturned: a feedback retrieval that fails — here
// under an already-cancelled context — fails the reformulation instead
// of silently handing back the original query.
func TestFeedbackErrorIsReturned(t *testing.T) {
	s := searcher("q alpha", "q alpha", "q beta")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if node, err := Reformulate(ctx, s, s.Index(), search.Term{Text: "q"}, DefaultConfig()); !errors.Is(err, context.Canceled) || node != nil {
		t.Fatalf("Reformulate under a cancelled context = %v, %v; want context.Canceled", node, err)
	}
}

func TestReformulateReplaces(t *testing.T) {
	s := searcher("q alpha", "q alpha", "q beta")
	orig := search.Term{Text: "q"}
	node, err := Reformulate(context.Background(), s, s.Index(), orig, Config{FbDocs: 2, FbTerms: 2})
	if err != nil {
		t.Fatal(err)
	}
	str := node.String()
	if !strings.Contains(str, "alpha") {
		t.Errorf("reformulated query %q missing feedback term", str)
	}
	// Pure replacement: the node is a #weight over feedback terms; the
	// original term may appear only as a feedback term itself.
	if !strings.HasPrefix(str, "#weight(") {
		t.Errorf("reformulated query %q should be a #weight", str)
	}
}

func TestReformulateInterpolates(t *testing.T) {
	s := searcher("q alpha", "q alpha")
	orig := search.Term{Text: "q"}
	node, err := Reformulate(context.Background(), s, s.Index(), orig, Config{FbDocs: 2, FbTerms: 1, OrigWeight: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	str := node.String()
	// RM3 form: outer #weight with the original query as one child.
	if !strings.Contains(str, "0.5 q") {
		t.Errorf("interpolated query %q missing original part", str)
	}
}

func TestReformulateFallsBackToOriginal(t *testing.T) {
	s := searcher("a b")
	orig := search.Term{Text: "zzz"}
	node, err := Reformulate(context.Background(), s, s.Index(), orig, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if node.String() != "zzz" {
		t.Errorf("expected original query back, got %q", node.String())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.FbDocs != 10 || c.FbTerms != 20 {
		t.Errorf("defaults = %+v", c)
	}
	c = Config{FbDocs: 3, FbTerms: 7}.withDefaults()
	if c.FbDocs != 3 || c.FbTerms != 7 {
		t.Errorf("explicit values overridden: %+v", c)
	}
}

func TestFeedbackFollowsTopDocs(t *testing.T) {
	// The top documents by P(Q|D) dominate the model: a term appearing
	// only in low-ranked feedback docs gets less weight than one in the
	// top doc.
	s := searcher(
		"q q q strongterm",           // ranks first (tf 3, same length)
		"q weakterm filler1 filler2", // lower P(Q|D), same in-doc share
	)
	// A small μ keeps P(Q|D) sensitive to tf on these tiny documents.
	s.Mu = 5
	terms, err := RelevanceModel(context.Background(), s, s.Index(), search.Term{Text: "q"}, Config{FbDocs: 2, FbTerms: 10})
	if err != nil {
		t.Fatal(err)
	}
	var wStrong, wWeak float64
	for _, tm := range terms {
		switch tm.Term {
		case "strongterm":
			wStrong = tm.Weight
		case "weakterm":
			wWeak = tm.Weight
		}
	}
	if wStrong == 0 || wWeak == 0 {
		t.Fatalf("terms missing: %+v", terms)
	}
	if wStrong <= wWeak {
		t.Errorf("strongterm (%f) should outweigh weakterm (%f)", wStrong, wWeak)
	}
}
