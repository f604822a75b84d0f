package index

// Score-bound metadata for dynamic pruning. For every postings list the
// index keeps the small summary from which the MaxScore-style pruned
// evaluator in internal/search derives per-leaf score upper bounds at
// query-compile time. The evaluator prunes only Dirichlet and reads
// only the maximum term frequency (DESIGN.md §5f). The minimum
// matching-document length and the (tf, dl) pair maximising tf/dl are
// computed, written and cross-checked because the FormatV2
// layout carries them; no evaluator reads them, and the format
// revision of ROADMAP item 4 drops them. The index guarantees every
// summary is exact for the postings it describes.

// TermBounds summarises one postings list for score-bound derivation.
// The zero value is the correct summary of an empty postings list.
type TermBounds struct {
	// MaxTF is the largest term frequency in any posting: the one field
	// the Dirichlet bound reads.
	MaxTF int32
	// MinDL is the length of the shortest document in the postings.
	// Layout only: written and cross-checked, read by no evaluator.
	MinDL int32
	// MaxRatioTF and MaxRatioDL are the (tf, dl) of the posting with the
	// largest tf/dl ratio. Ties keep the earliest posting; comparisons
	// cross-multiply in int64, so the argmax is exact, with no float
	// rounding. Layout only, like MinDL.
	MaxRatioTF int32
	MaxRatioDL int32
}

// boundsOf computes the summary of p against a document-length table.
func boundsOf(p *Postings, docLens []int32) TermBounds {
	var b TermBounds
	for i, doc := range p.Docs {
		tf := p.Freqs[i]
		dl := docLens[doc]
		if tf > b.MaxTF {
			b.MaxTF = tf
		}
		if i == 0 || dl < b.MinDL {
			b.MinDL = dl
		}
		if i == 0 || int64(tf)*int64(b.MaxRatioDL) > int64(b.MaxRatioTF)*int64(dl) {
			b.MaxRatioTF, b.MaxRatioDL = tf, dl
		}
	}
	return b
}

func minDocLenOf(docLens []int32) int32 {
	if len(docLens) == 0 {
		return 0
	}
	min := docLens[0]
	for _, dl := range docLens[1:] {
		if dl < min {
			min = dl
		}
	}
	return min
}

// ensureBounds computes the per-term summaries and the corpus minimum
// document length exactly once. A v2 load pre-populates both from the
// file, in which case the first call finds them present and keeps them.
func (ix *Index) ensureBounds() {
	ix.boundsOnce.Do(func() {
		if ix.termBounds != nil {
			return
		}
		tb := make([]TermBounds, len(ix.postings))
		for i := range ix.postings {
			tb[i] = boundsOf(&ix.postings[i], ix.docLens)
		}
		ix.termBounds = tb
		ix.minDocLen = minDocLenOf(ix.docLens)
	})
}

// BoundsFor returns the bound summary of an analyzed term; ok is false
// for out-of-vocabulary terms (whose zero summary is still the correct
// description of their empty postings).
func (ix *Index) BoundsFor(term string) (TermBounds, bool) {
	id, ok := ix.terms[term]
	if !ok {
		return TermBounds{}, false
	}
	ix.ensureBounds()
	return ix.termBounds[id], true
}

// PostingsBounds summarises a query-materialised postings list (phrase
// or unordered-window) against this index's document lengths, giving
// positional leaves bounds as exact as stored terms'.
func (ix *Index) PostingsBounds(p *Postings) TermBounds {
	return boundsOf(p, ix.docLens)
}

// MinDocLen returns the length of the shortest document in the
// collection (0 when it is empty) — the argmax of the Dirichlet
// background mass, which the pruned evaluator bounds with it.
func (ix *Index) MinDocLen() int32 {
	ix.ensureBounds()
	return ix.minDocLen
}
