package index

// UnorderedWindowPostings computes the postings of Indri's #uwN
// operator: all constituents occur, in any order, within a window of at
// most `window` token positions. It completes the paper's retrieval
// model, whose feature function "generalizes to n-grams and unordered
// term proximity" (Section 2.3).
//
// The per-document frequency counts minimal windows: the standard sweep
// keeps one cursor per constituent and, whenever the current span fits,
// records a match and advances the cursor at the lowest position.
// Constituents must be distinct terms; a window smaller than the number
// of constituents can never match. The result is caller-owned, like
// PhrasePostings'; retrieval resolves windows through WindowLeaf.
func (ix *Index) UnorderedWindowPostings(terms []string, window int) Postings {
	if window < len(terms) {
		return Postings{}
	}
	return ix.materialize(terms, int32(window), windowMatches)
}

// windowMatches is the #uwN matcher: it sweeps the constituents'
// position lists and counts (and, when collect is set, returns the start
// position of) every minimal window of width ≤ window covering one
// occurrence of each constituent.
func windowMatches(sc *PositionalScratch, pos [][]int32, window int32, collect bool) (int32, []int32) {
	sc.ptr = zeroed(sc.ptr, len(pos))
	ptr := sc.ptr
	var matches []int32
	var n int32
	for {
		lo, hi := int32(1<<30), int32(-1)
		loIdx := -1
		for i := range pos {
			p := pos[i][ptr[i]]
			if p < lo {
				lo, loIdx = p, i
			}
			if p > hi {
				hi = p
			}
		}
		if hi-lo+1 <= window {
			n++
			if collect {
				matches = append(matches, lo)
			}
		}
		ptr[loIdx]++
		if ptr[loIdx] == len(pos[loIdx]) {
			return n, matches
		}
	}
}
