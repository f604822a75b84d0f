package search

import (
	"sync"

	"repro/internal/index"
)

// evalScratch is the pooled per-query evaluation state: every slice the
// top-k loop (searchRuns, derivePruneBounds) would otherwise allocate
// per call — cursor array, union and per-candidate vectors, per-run
// heaps, bounds and partitions. A partition's flatten and its
// evaluation each take one scratch from the pool (reset-on-get), thread
// it through, and return it on every exit path including cancellation
// and degradation; in steady state a query's hot path performs no
// evaluator allocations at all.
//
// Ownership: a scratch is single-goroutine for the duration of one
// evaluation; the per-shard evaluators each take their own. Nothing
// returned to the caller may alias scratch memory — results are drained
// into the coordinator's buffers and merged into fresh slices — which
// is what putScratch's invariants rely on.
type evalScratch struct {
	leaves []leaf
	curs   []index.TermCursor

	// positional is flatten's key and intersection state for the index's
	// positional-leaf memo; it holds no index reference between lookups.
	positional index.PositionalScratch

	sorter ubSorter

	// searchRuns' state: the union leaves, one slot per run, and the
	// pass, whose slices are reused too.
	union []leaf
	runs  []runEval
	pass  pass
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

func getScratch() *evalScratch { return scratchPool.Get().(*evalScratch) }

// putScratch returns sc to the pool after dropping every reference that
// could pin an index, an mmap region, or a caller-visible result across
// requests. Backing arrays (including the cursors' decode windows) are
// retained — they are the pool's value.
func putScratch(sc *evalScratch) {
	if sc == nil {
		return
	}
	full := sc.leaves[:cap(sc.leaves)]
	for i := range full {
		full[i] = leaf{}
	}
	sc.leaves = sc.leaves[:0]
	fullUnion := sc.union[:cap(sc.union)]
	for i := range fullUnion {
		fullUnion[i] = leaf{}
	}
	sc.union = sc.union[:0]
	runs := sc.runs[:cap(sc.runs)]
	for i := range runs {
		runs[i].bounds.deltaExact = nil
	}
	p := &sc.pass
	p.ix, p.dead, p.leaves, p.st, p.curs, p.rs = nil, nil, nil, nil, nil, nil
	fullCurs := sc.curs[:cap(sc.curs)]
	for i := range fullCurs {
		fullCurs[i].Release()
	}
	sc.sorter = ubSorter{}
	scratchPool.Put(sc)
}

// grow returns s with length n, reusing its backing when it fits.
// Contents are unspecified — callers overwrite (or explicitly zero)
// every entry they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// cursors returns len(leaves) freshly-reset cursors: streaming leaves
// get block cursors over ix, everything else a window over its
// materialised row. Growing the array copies the existing cursor
// structs so their decode-window backings survive.
func (sc *evalScratch) cursors(ix *index.Index, leaves []leaf) []index.TermCursor {
	n := len(leaves)
	if cap(sc.curs) < n {
		next := make([]index.TermCursor, n)
		copy(next, sc.curs[:cap(sc.curs)])
		sc.curs = next
	} else {
		sc.curs = sc.curs[:n]
	}
	for li := range leaves {
		l := &leaves[li]
		if l.stream {
			sc.curs[li].ResetStream(ix, l.termID)
		} else {
			sc.curs[li].Reset(&l.postings)
		}
	}
	return sc.curs
}

// runSlots returns n run slots, keeping the slices earlier queries grew
// in each.
func (sc *evalScratch) runSlots(n int) []runEval {
	if cap(sc.runs) < n {
		next := make([]runEval, n)
		copy(next, sc.runs[:cap(sc.runs)])
		sc.runs = next
	}
	sc.runs = sc.runs[:n]
	return sc.runs
}

// ubSorter sorts a leaf-index permutation by ascending upper bound with
// leaf order breaking ties — a total order, so every sort algorithm
// produces the same permutation (bit-identity does not depend on
// sort.Sort internals). Pointer receiver: converting *ubSorter to
// sort.Interface does not allocate.
type ubSorter struct {
	order []int
	ub    []float64
}

func (s *ubSorter) Len() int { return len(s.order) }

func (s *ubSorter) Less(a, b int) bool {
	if s.ub[s.order[a]] != s.ub[s.order[b]] {
		return s.ub[s.order[a]] < s.ub[s.order[b]]
	}
	return s.order[a] < s.order[b]
}

func (s *ubSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }
