package search

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

var plainA = analysis.Analyzer{}
var stdA = analysis.Standard()

func mustParse(t *testing.T, a analysis.Analyzer, in string) Node {
	t.Helper()
	n, err := Parse(a, in)
	if err != nil {
		t.Fatalf("Parse(%q): %v", in, err)
	}
	return n
}

func TestParseBareTerms(t *testing.T) {
	n := mustParse(t, plainA, "cable car")
	w, ok := n.(Weighted)
	if !ok || len(w.Children) != 2 {
		t.Fatalf("parsed %#v", n)
	}
	if w.Children[0].Node.(Term).Text != "cable" {
		t.Errorf("first term = %v", w.Children[0].Node)
	}
}

func TestParseSingleTermCollapses(t *testing.T) {
	if n := mustParse(t, plainA, "funicular"); n.(Term).Text != "funicular" {
		t.Errorf("parsed %#v", n)
	}
}

func TestParsePhraseOperators(t *testing.T) {
	n := mustParse(t, plainA, "#1(cable car)")
	p, ok := n.(Phrase)
	if !ok || len(p.Terms) != 2 {
		t.Fatalf("parsed %#v", n)
	}
	// Quoted string is the same thing.
	q := mustParse(t, plainA, `"cable car"`)
	if q.String() != n.String() {
		t.Errorf("quoted %q != operator %q", q.String(), n.String())
	}
}

func TestParseUnorderedWindow(t *testing.T) {
	n := mustParse(t, plainA, "#uw8(cable car)")
	u, ok := n.(Unordered)
	if !ok || u.Width != 8 || len(u.Terms) != 2 {
		t.Fatalf("parsed %#v", n)
	}
	// Single term inside a window collapses to the term.
	if n := mustParse(t, plainA, "#uw4(cable)"); n.(Term).Text != "cable" {
		t.Errorf("parsed %#v", n)
	}
}

func TestParseWeight(t *testing.T) {
	n := mustParse(t, plainA, "#weight(2 cable 1 #1(cable car) 0.5 tram)")
	w, ok := n.(Weighted)
	if !ok || len(w.Children) != 3 {
		t.Fatalf("parsed %#v", n)
	}
	if w.Children[0].Weight != 2 || w.Children[2].Weight != 0.5 {
		t.Errorf("weights = %+v", w.Children)
	}
	if _, ok := w.Children[1].Node.(Phrase); !ok {
		t.Errorf("nested phrase lost: %#v", w.Children[1].Node)
	}
}

func TestParseNestedCombine(t *testing.T) {
	n := mustParse(t, plainA, "#combine(a #combine(b c) #weight(3 d 1 e))")
	w := n.(Weighted)
	if len(w.Children) != 3 {
		t.Fatalf("children = %d", len(w.Children))
	}
	inner := w.Children[1].Node.(Weighted)
	if len(inner.Children) != 2 {
		t.Errorf("inner children = %d", len(inner.Children))
	}
}

func TestParseAnalyzesTerms(t *testing.T) {
	n := mustParse(t, stdA, "The Running CARS")
	// "the" is a stopword; running→run, cars→car.
	w, ok := n.(Weighted)
	if !ok || len(w.Children) != 2 {
		t.Fatalf("parsed %#v", n)
	}
	if w.Children[0].Node.(Term).Text != "run" || w.Children[1].Node.(Term).Text != "car" {
		t.Errorf("terms = %v", n)
	}
	// Hyphenated word becomes a phrase.
	ph := mustParse(t, stdA, "cable-car")
	if _, ok := ph.(Phrase); !ok {
		t.Errorf("hyphenated input parsed to %#v", ph)
	}
}

func TestParseEmptyWeight(t *testing.T) {
	n := mustParse(t, plainA, "#weight()")
	if !IsEmpty(n) {
		t.Errorf("empty #weight should be empty, got %#v", n)
	}
}

func TestParseEmptyOperatorsDropOut(t *testing.T) {
	// Empty proximity operators (and empty quotes) vanish like bare
	// stopwords; surrounding terms survive.
	n := mustParse(t, plainA, `cable #1() "" tram`)
	w, ok := n.(Weighted)
	if !ok || len(w.Children) != 2 {
		t.Fatalf("parsed %#v", n)
	}
}

func TestParseStopwordOnly(t *testing.T) {
	n := mustParse(t, stdA, "the of and")
	if !IsEmpty(n) {
		t.Errorf("stopword-only query should be empty, got %#v", n)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"#1(cable car",    // missing )
		"#weight(cable)",  // missing weight
		"#weight(1)",      // weight without node
		"#frob(x)",        // unknown operator
		"#uwx(a b)",       // bad width
		"#uw0(a b)",       // zero width
		`"unterminated`,   // quote
		"a ) b",           // unbalanced
		"#1(#combine(a))", // operator inside proximity
		"#combine",        // missing (
	}
	for _, in := range bad {
		if _, err := Parse(plainA, in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestParseRoundTripThroughString(t *testing.T) {
	// Parsing a rendered query reproduces the same render.
	inputs := []string{
		"#weight(2 cable 1 #1(cable car))",
		"#combine(a b #uw4(c d))",
	}
	for _, in := range inputs {
		n := mustParse(t, plainA, in)
		again := mustParse(t, plainA, n.String())
		if n.String() != again.String() {
			t.Errorf("round trip: %q → %q", n.String(), again.String())
		}
	}
}

func TestParsedQuerySearches(t *testing.T) {
	ix := buildIndex("cable car rides", "tram depot", "cable maintenance")
	s := NewSearcher(ix)
	n := mustParse(t, plainA, "#weight(2 #1(cable car) 1 tram)")
	res := rank(t, s, n, 10)
	if len(res) != 2 {
		t.Fatalf("results = %v", res)
	}
	if res[0].Name != "D0" {
		t.Errorf("top = %s", res[0].Name)
	}
}

func TestParseEmptyInput(t *testing.T) {
	n := mustParse(t, plainA, "   ")
	if !IsEmpty(n) {
		t.Errorf("empty input should parse to an empty node, got %#v", n)
	}
	if !strings.HasPrefix(n.String(), "#weight(") {
		t.Errorf("empty node renders as %q", n.String())
	}
}
