package search

import (
	"context"

	"repro/internal/fault"
	"repro/internal/index"
)

// exhausted is the sentinel document a drained cursor parks on; it
// compares above every real DocID, so the running minimum naturally
// ignores finished leaves.
const exhausted = index.DocEnd

// searchDAAT is the document-at-a-time evaluator: the leaves' postings
// cursors are merged in document order and every candidate goes through
// a bounded top-k min-heap instead of a full candidate map + sort. It
// visits exactly the union of the leaves' postings and sums leaf
// contributions in leaf order — the order Explain sums in, so a
// document's score has the same bits on both paths.
//
// The merge is a single fused pass per candidate: each leaf's current
// document is cached in a flat slice, and while one candidate is being
// scored the minimum over the (possibly advanced) cached documents
// already determines the next candidate. It allocates O(leaves + k)
// and resolves document names only for the k survivors.
//
// The loop checks ctx every cancelCheckEvery candidates so a serving
// deadline or a disconnected client abandons the evaluation instead of
// finishing a retrieval nobody will read; the cancelled call returns
// ctx.Err() and no results.
// searchDAAT is a free function over an explicit index so the sharded
// evaluator can drive it per shard with globally-statted leaves. sc is
// the caller's pooled scratch; nil self-acquires one for the call.
//
// dead lists documents of ix that no longer exist (a live segment's
// tombstones). Their postings are still walked — they are in the lists —
// but they are never offered to the heap, so the k survivors and the
// threshold they set are exactly those of an index without them.
func searchDAAT(ctx context.Context, ix *index.Index, dead index.DocSet, leaves []leaf, k int, score scorer, st *SearchStats, sc *evalScratch) ([]Result, error) {
	if sc == nil {
		sc = getScratch()
		defer putScratch(sc)
	}
	n := len(leaves)
	curs := sc.cursors(ix, leaves)
	curDoc := grow(sc.curDoc, n)
	sc.curDoc = curDoc
	next := exhausted
	for li := range curs {
		d := curs[li].Doc()
		curDoc[li] = d
		if d < next {
			next = d
		}
	}
	h := topK{docs: sc.heapDocs[:0], scores: sc.heapScores[:0], k: k}
	defer func() { sc.heapDocs, sc.heapScores = h.docs[:0], h.scores[:0] }()
	var advanced, cands int64
	flushStats := func() {
		if st != nil {
			st.PostingsAdvanced += advanced
			st.CandidatesExamined += cands
			for li := range curs {
				st.BlocksDecoded += curs[li].Decoded
				st.BlocksTotal += int64(curs[li].NumBlocks())
			}
		}
	}
	for next != exhausted {
		if cands%cancelCheckEvery == 0 {
			err := ctx.Err()
			if err == nil {
				err = fault.Check(fault.IndexPostings)
			}
			if err != nil {
				flushStats()
				return nil, err
			}
		}
		doc := next
		dl := float64(ix.DocLen(doc))
		total := 0.0
		next = exhausted
		for li := range leaves {
			d := curDoc[li]
			var tf int32
			if d == doc {
				c := &curs[li]
				tf = c.Freq()
				d = c.Next()
				curDoc[li] = d
				advanced++
			}
			// Every leaf contributes (non-matching leaves carry
			// background mass under the LM models), in leaf order.
			total += score(&leaves[li], tf, dl)
			if d < next {
				next = d
			}
		}
		cands++
		if !dead.Has(doc) {
			h.offer(doc, total, st)
		}
	}
	flushStats()
	return h.drain(ix), nil
}

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

// drain empties the heap into a descending-ranked result list, resolving
// document names only for the survivors.
func (h *topK) drain(ix *index.Index) []Result {
	n := len(h.docs)
	if n == 0 {
		return nil
	}
	out := make([]Result, n)
	for i := n - 1; i >= 0; i-- {
		doc, score := h.docs[0], h.scores[0]
		h.swap(0, len(h.docs)-1)
		h.docs = h.docs[:len(h.docs)-1]
		h.scores = h.scores[:len(h.scores)-1]
		h.siftDown(0)
		out[i] = Result{Doc: doc, Name: ix.DocName(doc), Score: score}
	}
	return out
}
