package index

import "slices"

// Score-bound metadata for dynamic pruning. The MaxScore-style pruned
// evaluator in internal/search bounds a leaf's Dirichlet score by two
// numbers (DESIGN.md §9.3): the largest term frequency in its postings
// and the length of the shortest document in the collection. Every
// index kind keeps the first per term beside df and cf — the Builder
// counts it as it adds, a v2 file stores it and Open cross-checks it
// against the block directory — and the second beside the length table.

// maxTF returns the largest of a postings list's term frequencies (0
// when it is empty).
func maxTF(freqs []int32) int32 {
	var m int32
	for _, tf := range freqs {
		m = max(m, tf)
	}
	return m
}

func minDocLenOf(docLens []int32) int32 {
	if len(docLens) == 0 {
		return 0
	}
	return slices.Min(docLens)
}

// MinDocLen returns the length of the shortest document in the
// collection (0 when it is empty) — the argmax of the Dirichlet
// background mass, which the pruned evaluator bounds with it.
func (ix *Index) MinDocLen() int32 { return ix.minDocLen }
