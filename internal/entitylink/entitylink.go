// Package entitylink implements the entity-linking substrate of the
// paper's Section 3. The paper links query text to Wikipedia articles
// with Dexter (a dictionary/commonness linker over anchor surface forms)
// and falls back to Alchemy (a recognizer without KB linking) when Dexter
// finds nothing; the combination reaches ~80% linking precision.
//
// We reproduce that stack: a surface-form dictionary with
// commonness-weighted candidates and greedy longest-match spotting plays
// Dexter's role, and a per-token recognizer that matches single content
// words against article-title vocabulary plays Alchemy's. Linking errors
// are real, not injected: they happen when an ambiguous surface form's
// most common sense is the wrong article — exactly Dexter's failure mode.
package entitylink

import (
	"strings"

	"repro/internal/analysis"
	"repro/internal/kb"
)

// Candidate is one sense of a surface form.
type Candidate struct {
	Article kb.NodeID
	// Commonness is the link-probability of this sense; the linker
	// resolves ambiguous surfaces to the highest-commonness candidate.
	Commonness float64
}

// Dictionary maps analyzed surface forms to candidate articles, plus a
// unigram title-term index for the fallback recognizer.
type Dictionary struct {
	analyzer analysis.Analyzer
	surfaces map[string][]Candidate
	// unigrams maps single title terms to the candidates whose titles
	// contain them, for the Alchemy-like fallback.
	unigrams map[string][]Candidate
	maxSpan  int
}

// NewDictionary returns an empty dictionary using analyzer for surface
// normalisation.
func NewDictionary(analyzer analysis.Analyzer) *Dictionary {
	return &Dictionary{
		analyzer: analyzer,
		surfaces: make(map[string][]Candidate),
		unigrams: make(map[string][]Candidate),
	}
}

// AddSurface registers surface as a mention of article with the given
// commonness. Surfaces are analyzed, so "Cable Cars" and "cable car"
// collide the way anchor text does.
func (d *Dictionary) AddSurface(surface string, article kb.NodeID, commonness float64) {
	d.addSurfaceTerms(d.analyzer.AnalyzeTerms(surface), article, commonness)
}

// addSurfaceTerms registers an analyzed surface: its terms joined with
// single spaces are the key Link looks spans up by.
func (d *Dictionary) addSurfaceTerms(terms []string, article kb.NodeID, commonness float64) {
	key := strings.Join(terms, " ")
	if key == "" {
		return
	}
	d.surfaces[key] = append(d.surfaces[key], Candidate{Article: article, Commonness: commonness})
	if len(terms) > d.maxSpan {
		d.maxSpan = len(terms)
	}
}

// AddTitle registers an article title both as a full surface form and in
// the unigram fallback index, from one analysis of the title.
func (d *Dictionary) AddTitle(title string, article kb.NodeID, commonness float64) {
	terms := d.analyzer.AnalyzeTerms(title)
	d.addSurfaceTerms(terms, article, commonness)
	for _, t := range terms {
		d.unigrams[t] = append(d.unigrams[t], Candidate{Article: article, Commonness: commonness})
	}
}

// best returns the highest-commonness candidate (ties: lowest article ID
// for determinism).
func best(cands []Candidate) (Candidate, bool) {
	if len(cands) == 0 {
		return Candidate{}, false
	}
	b := cands[0]
	for _, c := range cands[1:] {
		if c.Commonness > b.Commonness || (c.Commonness == b.Commonness && c.Article < b.Article) {
			b = c
		}
	}
	return b, true
}

// NumSurfaces returns the number of distinct surface forms.
func (d *Dictionary) NumSurfaces() int { return len(d.surfaces) }

// Linker spots and links entities in text.
type Linker struct {
	dict *Dictionary
	// FallbackThreshold is the minimum commonness a unigram fallback
	// candidate needs to be linked (the Alchemy stage); 0 disables the
	// threshold.
	FallbackThreshold float64
	// DisableFallback turns the Alchemy-like stage off (Dexter alone).
	DisableFallback bool
}

// NewLinker returns a Linker over dict with the combined
// Dexter+Alchemy behaviour enabled.
func NewLinker(dict *Dictionary) *Linker {
	return &Linker{dict: dict, FallbackThreshold: 0.05}
}

// Mention is one linked span.
type Mention struct {
	// Surface is the normalised matched surface form.
	Surface string
	Article kb.NodeID
	// Fallback marks mentions produced by the recognizer stage rather
	// than the dictionary.
	Fallback bool
}

// Link finds entity mentions in text. The spotter scans left to right
// preferring the longest dictionary match (up to the longest registered
// surface); tokens not covered by any dictionary match go through the
// fallback recognizer. The returned mentions preserve text order and are
// deduplicated by article.
func (l *Linker) Link(text string) []Mention {
	terms := l.dict.analyzer.AnalyzeTerms(text)
	var mentions []Mention
	linked := make(map[kb.NodeID]bool)
	var leftover []string
	for i := 0; i < len(terms); {
		matched := false
		maxSpan := l.dict.maxSpan
		if maxSpan > len(terms)-i {
			maxSpan = len(terms) - i
		}
		for span := maxSpan; span >= 1; span-- {
			key := strings.Join(terms[i:i+span], " ")
			if c, ok := best(l.dict.surfaces[key]); ok {
				if !linked[c.Article] {
					linked[c.Article] = true
					mentions = append(mentions, Mention{Surface: key, Article: c.Article})
				}
				i += span
				matched = true
				break
			}
		}
		if !matched {
			leftover = append(leftover, terms[i])
			i++
		}
	}
	if !l.DisableFallback {
		for _, t := range leftover {
			c, ok := best(l.dict.unigrams[t])
			if !ok || c.Commonness < l.FallbackThreshold || linked[c.Article] {
				continue
			}
			linked[c.Article] = true
			mentions = append(mentions, Mention{Surface: t, Article: c.Article, Fallback: true})
		}
	}
	return mentions
}

// LinkArticles is Link but returns just the article IDs, in mention
// order.
func (l *Linker) LinkArticles(text string) []kb.NodeID {
	ms := l.Link(text)
	out := make([]kb.NodeID, len(ms))
	for i, m := range ms {
		out[i] = m.Article
	}
	return out
}
