package index

// PhrasePostings computes the postings of an exact ordered phrase
// (Indri's #1 ordered window): the i-th constituent must occur at
// position p+i. The result is materialised from the constituents'
// positional postings via k-way document intersection followed by
// position-chain matching, so it can be scored exactly like a term,
// including an exact collection frequency for the phrase background
// model — the generalisation "to n-grams" of the paper's feature
// function.
//
// Phrases with out-of-vocabulary constituents have empty postings.
//
// The returned Postings is always owned by the caller — every slice,
// position lists included, is built fresh, also for a single-constituent
// "phrase" (a copy of that term's postings) — so mutating the result can
// never corrupt the index's live postings. Retrieval does not call
// this: it resolves phrases through PhraseLeaf, which runs the same
// intersection once per index and keeps counts only.
func (ix *Index) PhrasePostings(terms []string) Postings {
	return ix.materialize(terms, 0, chainMatches)
}

// advance moves cursor forward in docs (sorted ascending) until
// docs[cursor] >= target, using galloping search to stay near O(log gap).
func advance(docs []DocID, cursor int, target DocID) int {
	if cursor >= len(docs) || docs[cursor] >= target {
		return cursor
	}
	// Gallop to find an upper bound.
	step := 1
	lo := cursor
	hi := cursor + step
	for hi < len(docs) && docs[hi] < target {
		lo = hi
		step *= 2
		hi = cursor + step
	}
	if hi > len(docs) {
		hi = len(docs)
	}
	// Binary search in (lo, hi].
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if docs[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// chainMatches is the #1 matcher: it counts (and, when collect is set,
// returns) the start positions p such that constituent i occurs at p+i
// for all i.
func chainMatches(_ *PositionalScratch, pos [][]int32, _ int32, collect bool) (int32, []int32) {
	starts := pos[0]
	var matched []int32
	if collect {
		matched = make([]int32, 0, len(starts))
	}
	var n int32
	for _, p := range starts {
		ok := true
		for i := 1; i < len(pos); i++ {
			if !containsPos(pos[i], p+int32(i)) {
				ok = false
				break
			}
		}
		if ok {
			n++
			if collect {
				matched = append(matched, p)
			}
		}
	}
	return n, matched
}

// containsPos binary-searches a sorted position list.
func containsPos(pos []int32, x int32) bool {
	lo, hi := 0, len(pos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pos[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(pos) && pos[lo] == x
}
