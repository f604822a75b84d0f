// Package analysis provides the lexical layer of the retrieval substrate:
// tokenization, stopword filtering and Porter stemming. It mirrors the
// text pipeline Indri applies to both documents and queries so that the
// query-likelihood scores computed by internal/search are consistent on
// both sides.
package analysis

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single term occurrence produced by the tokenizer.
type Token struct {
	// Term is the (possibly normalised) surface form.
	Term string
	// Position is the 0-based token offset within the input, counted
	// before any stopword removal so that phrase windows measured on
	// positions remain faithful to the original text.
	Position int
}

// Tokenize splits text into lowercase alphanumeric terms. Unicode letters
// and digits are kept; everything else separates tokens. Positions are
// assigned in input order starting at 0.
//
// Each term is one allocation: an ASCII token (nearly every token) is
// cut from text and lowercased straight into its string; a token with
// other letters is lowercased rune by rune.
func Tokenize(text string) []Token {
	tokens := make([]Token, 0, len(text)/6+1)
	start, ascii := -1, true
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			ascii = ascii && r < utf8.RuneSelf
			continue
		}
		if start >= 0 {
			tokens = append(tokens, Token{Term: lowerTerm(text[start:i], ascii), Position: len(tokens)})
			start, ascii = -1, true
		}
	}
	if start >= 0 {
		tokens = append(tokens, Token{Term: lowerTerm(text[start:], ascii), Position: len(tokens)})
	}
	return tokens
}

// lowerTerm returns tok in lower case, as unicode.ToLower maps each of
// its runes; ascii says tok is all ASCII.
func lowerTerm(tok string, ascii bool) string {
	var sb strings.Builder
	sb.Grow(len(tok))
	if ascii {
		for i := 0; i < len(tok); i++ {
			c := tok[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			sb.WriteByte(c)
		}
	} else {
		for _, r := range tok {
			sb.WriteRune(unicode.ToLower(r))
		}
	}
	return sb.String()
}

// Analyzer is a configurable text pipeline: tokenize, optionally drop
// stopwords, optionally stem. The zero value tokenizes only.
type Analyzer struct {
	// RemoveStopwords drops terms found in the standard stopword list.
	RemoveStopwords bool
	// Stem applies the Porter stemmer to each surviving term.
	Stem bool
}

// Standard returns the analyzer used throughout the reproduction:
// stopword removal plus Porter stemming, matching Indri's usual krovetz/
// porter configuration closely enough for query-likelihood retrieval.
func Standard() Analyzer { return Analyzer{RemoveStopwords: true, Stem: true} }

// Analyze runs the pipeline over text. Positions are preserved from
// tokenization, so removed stopwords leave gaps; phrase matching uses
// those original positions.
func (a Analyzer) Analyze(text string) []Token {
	toks := Tokenize(text)
	out := toks[:0]
	for _, t := range toks {
		if a.RemoveStopwords && IsStopword(t.Term) {
			continue
		}
		if a.Stem {
			t.Term = PorterStem(t.Term)
		}
		if t.Term == "" {
			continue
		}
		out = append(out, t)
	}
	return out
}

// AnalyzeTerms is Analyze but returns only the term strings.
func (a Analyzer) AnalyzeTerms(text string) []string {
	toks := a.Analyze(text)
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Term
	}
	return out
}
