package analysis

import (
	"testing"
	"unicode/utf8"
)

// FuzzPorterStem asserts the stemmer never panics, never grows a word,
// is stable on ASCII lowercase input and stems as the reference does.
func FuzzPorterStem(f *testing.F) {
	for _, seed := range []string{"", "a", "running", "caresses", "sky", "generalizations", "ponies", "ääkköset", "1234", "abcdefghij", "relational", "hopefulness", "adjustment", "ies"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, word string) {
		stem := PorterStem(word)
		if ref := ReferencePorterStem(word); stem != ref {
			t.Fatalf("stem of %q is %q, reference %q", word, stem, ref)
		}
		if len(stem) > len(word) {
			t.Fatalf("stem %q longer than word %q", stem, word)
		}
		if word != "" && utf8.ValidString(word) && stem == "" {
			t.Fatalf("stem of %q is empty", word)
		}
	})
}

// FuzzAnalyze asserts the full pipeline never panics and produces only
// non-empty terms with increasing positions.
func FuzzAnalyze(f *testing.F) {
	for _, seed := range []string{"", "hello world", "The Cable-Cars!", "ünïcodé tèxt", "a\x00b", "\xff\xfe"} {
		f.Add(seed)
	}
	a := Standard()
	f.Fuzz(func(t *testing.T, text string) {
		prev := -1
		for _, tok := range a.Analyze(text) {
			if tok.Term == "" {
				t.Fatal("empty term")
			}
			if tok.Position <= prev {
				t.Fatal("positions not increasing")
			}
			prev = tok.Position
		}
	})
}
