package analysis

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenizeBasic(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   ", nil},
		{"hello", []string{"hello"}},
		{"Hello, World!", []string{"hello", "world"}},
		{"cable-cars", []string{"cable", "cars"}},
		{"a.b.c", []string{"a", "b", "c"}},
		{"foo  bar\tbaz\nqux", []string{"foo", "bar", "baz", "qux"}},
		{"42 items", []string{"42", "items"}},
		{"naïve café", []string{"naïve", "café"}},
		{"ÅNGSTRÖM", []string{"ångström"}},
	}
	for _, tc := range tests {
		got := Terms(tc.in)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Terms(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTokenizePositions(t *testing.T) {
	toks := Tokenize("one two  three")
	want := []Token{{"one", 0}, {"two", 1}, {"three", 2}}
	if !reflect.DeepEqual(toks, want) {
		t.Errorf("Tokenize positions = %v, want %v", toks, want)
	}
}

func TestAnalyzerStopwordsKeepPositions(t *testing.T) {
	a := Analyzer{RemoveStopwords: true}
	toks := a.Analyze("the cat and the hat")
	// "the", "and" removed; positions of survivors preserved.
	want := []Token{{"cat", 1}, {"hat", 4}}
	if !reflect.DeepEqual(toks, want) {
		t.Errorf("Analyze = %v, want %v", toks, want)
	}
}

func TestAnalyzerStemming(t *testing.T) {
	a := Analyzer{Stem: true}
	got := a.AnalyzeTerms("running cars happily")
	want := []string{"run", "car", "happili"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AnalyzeTerms = %v, want %v", got, want)
	}
}

func TestStandardAnalyzer(t *testing.T) {
	a := Standard()
	got := a.AnalyzeTerms("The funiculars are running on the mountains")
	want := []string{"funicular", "run", "mountain"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Standard().AnalyzeTerms = %v, want %v", got, want)
	}
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "is"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"cable", "car", "wikipedia", ""} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true, want false", w)
		}
	}
	if len(stopwordList) < 100 {
		t.Errorf("stopword list has %d words, want a substantial list", len(stopwordList))
	}
}

// Property: every term produced by Tokenize is non-empty, lowercase and
// alphanumeric, and positions strictly increase.
func TestTokenizeProperties(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		prev := -1
		for _, tok := range toks {
			if tok.Term == "" {
				return false
			}
			if tok.Position <= prev {
				return false
			}
			prev = tok.Position
			for _, r := range tok.Term {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					return false
				}
				// Lowercased: the rune is a fixed point of ToLower
				// (some letters, e.g. mathematical capitals, have no
				// lowercase mapping and pass through unchanged).
				if r != unicode.ToLower(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: tokenization is idempotent — re-tokenizing the joined terms
// yields the same terms.
func TestTokenizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		first := Terms(s)
		second := Terms(strings.Join(first, " "))
		return reflect.DeepEqual(first, second)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the analyzer never outputs stopwords when removal is on.
func TestAnalyzerNoStopwordsProperty(t *testing.T) {
	a := Analyzer{RemoveStopwords: true}
	f := func(s string) bool {
		for _, tok := range a.Analyze(s) {
			if IsStopword(tok.Term) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
