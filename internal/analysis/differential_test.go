package analysis_test

import (
	"strings"
	"testing"
	"unicode"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/kb"
	"repro/internal/wikigen"
)

// referenceTokenize is Tokenize as it was before each ASCII token was
// cut straight into its string: every token built rune by rune through
// a strings.Builder. It and ReferencePorterStem (export_test.go) are
// what the rewrites are held byte-identical to.
func referenceTokenize(text string) []analysis.Token {
	tokens := make([]analysis.Token, 0, len(text)/6+1)
	var sb strings.Builder
	pos := 0
	flush := func() {
		if sb.Len() == 0 {
			return
		}
		tokens = append(tokens, analysis.Token{Term: sb.String(), Position: pos})
		pos++
		sb.Reset()
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			sb.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return tokens
}

func checkAnalysis(t *testing.T, text string) {
	t.Helper()
	got, want := analysis.Tokenize(text), referenceTokenize(text)
	if len(got) != len(want) {
		t.Fatalf("%q: %d tokens, want %d", text, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%q: token %d is %+v, want %+v", text, i, got[i], want[i])
		}
		if s, r := analysis.PorterStem(got[i].Term), analysis.ReferencePorterStem(got[i].Term); s != r {
			t.Fatalf("stem of %q is %q, want %q", got[i].Term, s, r)
		}
	}
}

// TestAnalysisMatchesReferenceOnCorpus runs the tokenizer over every
// KB title of the default world and every CHiC document and query, and
// the stemmer over every token, against the references.
func TestAnalysisMatchesReferenceOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the default world's CHiC collection")
	}
	world := wikigen.MustGenerate(wikigen.DefaultConfig())
	for id := 0; id < world.Graph.NumNodes(); id++ {
		checkAnalysis(t, world.Graph.Title(kb.NodeID(id)))
	}
	ins, err := dataset.BuildWithSink(world, dataset.CHiCProfile(dataset.ScaleDefault),
		func(_, text string) { checkAnalysis(t, text) })
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		for _, q := range in.Queries {
			checkAnalysis(t, q.Text)
		}
	}
}

// TestAnalysisMatchesReferenceOnAwkwardText covers what the corpus does
// not: mixed scripts, case-changing runes, invalid UTF-8, digits.
func TestAnalysisMatchesReferenceOnAwkwardText(t *testing.T) {
	for _, text := range []string{
		"", "   ", "Hello, World!", "naïve café ÉCOLE", "İstanbul ΣΟΦΙΑ straße", "x\xffy\xc3z",
		"abc123DEF", "日本語のテキスト", "mixedÄscii", "a-b_c.d", "ǅungla ǈ", "KKelvin",
		"running RUNNING runs ran", "GENERALIZATIONS operational hopefulness",
	} {
		checkAnalysis(t, text)
	}
}
