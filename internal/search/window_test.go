package search

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

func TestUnorderedNodeScoring(t *testing.T) {
	ix := buildIndex(
		"cable car station", // ordered adjacent
		"car the cable",     // reversed within window 3
		"cable x y z q car", // outside window 3
	)
	s := NewSearcher(ix)
	res := rank(t, s, Unordered{Terms: []string{"cable", "car"}, Width: 3}, 10)
	names := map[string]bool{}
	for _, r := range res {
		names[r.Name] = true
	}
	if !names["D0"] || !names["D1"] || names["D2"] {
		t.Errorf("window matches = %v", names)
	}
}

func TestUnorderedString(t *testing.T) {
	n := Unordered{Terms: []string{"a", "b"}, Width: 4}
	if n.String() != "#uw4(a b)" {
		t.Errorf("String = %q", n.String())
	}
}

func TestUnorderedIsEmpty(t *testing.T) {
	if !IsEmpty(Unordered{}) {
		t.Error("empty unordered should be empty")
	}
	if IsEmpty(Unordered{Terms: []string{"x"}, Width: 1}) {
		t.Error("non-empty unordered misreported")
	}
}

func TestTitleWindow(t *testing.T) {
	a := analysis.Standard()
	n := WindowOfTerms(a.AnalyzeTerms("Cable Car"), 2)
	uw, ok := n.(Unordered)
	if !ok {
		t.Fatalf("WindowOfTerms returned %T", n)
	}
	if uw.Width != 4 { // 2 terms + slack 2
		t.Errorf("width = %d", uw.Width)
	}
	if _, ok := WindowOfTerms(a.AnalyzeTerms("Funicular"), 2).(Term); !ok {
		t.Error("single-word title should collapse to Term")
	}
	if !IsEmpty(WindowOfTerms(a.AnalyzeTerms("the of"), 2)) {
		t.Error("stopword-only title should be empty")
	}
}

func TestUnorderedVersusPhraseRanking(t *testing.T) {
	// The unordered window admits strictly more matches than the exact
	// phrase; both must appear in flattened queries without error.
	ix := buildIndex("alpha beta", "beta alpha", "alpha x beta")
	s := NewSearcher(ix)
	phrase := rank(t, s, Phrase{Terms: []string{"alpha", "beta"}}, 10)
	window := rank(t, s, Unordered{Terms: []string{"alpha", "beta"}, Width: 3}, 10)
	if len(phrase) != 1 {
		t.Errorf("phrase matched %d docs", len(phrase))
	}
	if len(window) != 3 {
		t.Errorf("window matched %d docs", len(window))
	}
	mixed := Weight([]float64{1, 1}, []Node{
		Phrase{Terms: []string{"alpha", "beta"}},
		Unordered{Terms: []string{"alpha", "beta"}, Width: 3},
	})
	if got := rank(t, s, mixed, 10); len(got) != 3 || got[0].Name != "D0" {
		t.Errorf("mixed query ranking = %v", got)
	}
	if !strings.Contains(mixed.String(), "#uw3") {
		t.Error("mixed query rendering incomplete")
	}
}
