package search

import (
	"slices"

	"repro/internal/index"
)

// exhausted is the sentinel document a drained cursor parks on; it
// compares above every real DocID, so the running minimum naturally
// ignores finished leaves.
const exhausted = index.DocEnd

// topK is a bounded min-heap keyed by the result ordering (score desc,
// DocID asc): the root is the *worst* retained result, so a new
// candidate either displaces the root or is rejected in O(1).
type topK struct {
	docs   []index.DocID
	scores []float64
	k      int
}

// worse reports whether entry i orders after (score desc, doc asc) the
// candidate (cs, cd) — i.e. the candidate would outrank it.
func (h *topK) worse(i int, cs float64, cd index.DocID) bool {
	if h.scores[i] != cs {
		return h.scores[i] < cs
	}
	return h.docs[i] > cd
}

// less orders heap entries worst-first.
func (h *topK) less(i, j int) bool { return h.worse(i, h.scores[j], h.docs[j]) }

func (h *topK) swap(i, j int) {
	h.docs[i], h.docs[j] = h.docs[j], h.docs[i]
	h.scores[i], h.scores[j] = h.scores[j], h.scores[i]
}

// offer considers one scored candidate.
func (h *topK) offer(doc index.DocID, score float64, st *SearchStats) {
	if len(h.docs) < h.k {
		h.docs = append(h.docs, doc)
		h.scores = append(h.scores, score)
		h.siftUp(len(h.docs) - 1)
		if st != nil {
			st.HeapPushes++
		}
		return
	}
	if !h.worse(0, score, doc) {
		return // candidate does not beat the current k-th best
	}
	h.docs[0], h.scores[0] = doc, score
	h.siftDown(0)
	if st != nil {
		st.HeapEvictions++
	}
}

func (h *topK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *topK) siftDown(i int) {
	n := len(h.docs)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}

// drain empties the heap onto dst as a descending-ranked result list,
// resolving document names only for the survivors.
func (h *topK) drain(dst []Result, ix *index.Index) []Result {
	n := len(h.docs)
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	for i := n - 1; i >= 0; i-- {
		doc, score := h.docs[0], h.scores[0]
		h.swap(0, len(h.docs)-1)
		h.docs = h.docs[:len(h.docs)-1]
		h.scores = h.scores[:len(h.scores)-1]
		h.siftDown(0)
		dst[base+i] = Result{Doc: doc, Name: ix.DocName(doc), Score: score}
	}
	return dst
}
