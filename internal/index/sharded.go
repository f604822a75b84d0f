package index

// Sharded partitions a document collection across S shards, each a full
// *Index over its subset of the documents. Documents are assigned
// round-robin by DocID: global document g lives in shard g mod S under
// the local ID g div S, so within a shard ascending local IDs correspond
// to ascending global IDs — per-shard DocID tie-breaks therefore agree
// with the global ordering, which is what lets a per-shard top-k merge
// reproduce single-index rankings exactly.
//
// The shards carry only shard-local postings and lengths; the collection
// statistics that smoothing needs (total tokens, collection frequencies,
// document frequencies) must be taken globally — Sharded exposes the
// global totals, and search.ShardedSearcher overrides every query leaf's
// statistics with the cross-shard sums so Dirichlet/JM/BM25 scores are
// bit-identical to evaluating the unsharded index.
type Sharded struct {
	shards    []*Index
	numDocs   int
	totalToks int64
}

// NewSharded splits ix into n round-robin shards. n is clamped to
// [1, NumDocs] (an empty index yields a single empty shard). With n == 1
// the original index is shared, not copied.
//
// Per-shard postings remap Docs to local IDs and copy Freqs rows; the
// Positions rows alias the parent index's slices (both sides treat them
// as immutable, as Index already requires of PostingsFor callers).
func NewSharded(ix *Index, n int) *Sharded {
	if nd := ix.NumDocs(); n > nd {
		n = nd
	}
	if n < 1 {
		n = 1
	}
	// Splitting walks every postings row; a v2-backed index must decode
	// them first (shards themselves are plain in-memory indexes).
	ix.materializeAll()
	sh := &Sharded{numDocs: ix.NumDocs(), totalToks: ix.totalToks}
	if n == 1 {
		sh.shards = []*Index{ix}
		return sh
	}
	sh.shards = make([]*Index, n)
	for s := range sh.shards {
		sh.shards[s] = &Index{
			analyzer: ix.analyzer,
			terms:    make(map[string]int32),
		}
	}
	for g, name := range ix.docNames {
		s := sh.shards[g%n]
		s.docNames = append(s.docNames, name)
		s.docLens = append(s.docLens, ix.docLens[g])
		if len(ix.docTexts) > 0 {
			s.docTexts = append(s.docTexts, ix.docTexts[g])
		}
		s.totalToks += int64(ix.docLens[g])
	}
	for tid, text := range ix.termText {
		p := &ix.postings[tid]
		for row, g := range p.Docs {
			s := sh.shards[int(g)%n]
			id, ok := s.terms[text]
			if !ok {
				id = int32(len(s.termText))
				s.terms[text] = id
				s.termText = append(s.termText, text)
				s.postings = append(s.postings, Postings{})
			}
			sp := &s.postings[id]
			// Docs ascend globally, and g div n is monotone within a
			// residue class, so the local postings stay sorted.
			sp.Docs = append(sp.Docs, g/DocID(n))
			sp.Freqs = append(sp.Freqs, p.Freqs[row])
			sp.Positions = append(sp.Positions, p.Positions[row])
		}
	}
	return sh
}

// NumShards returns the shard count S.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

// Shard returns shard i as a standalone index over its documents.
func (sh *Sharded) Shard(i int) *Index { return sh.shards[i] }

// NumDocs returns the global document count.
func (sh *Sharded) NumDocs() int { return sh.numDocs }

// TotalTokens returns the global collection length |C| in tokens.
func (sh *Sharded) TotalTokens() int64 { return sh.totalToks }

// AvgDocLen returns the global mean document length.
func (sh *Sharded) AvgDocLen() float64 {
	if sh.numDocs == 0 {
		return 0
	}
	return float64(sh.totalToks) / float64(sh.numDocs)
}

// FloorProb converts a global collection frequency into P(w|C) with the
// same 0.5-occurrence OOV floor as Index.FloorProb, over the global
// token count — the global-stats invariant that keeps sharded smoothing
// bit-identical to unsharded.
func (sh *Sharded) FloorProb(cf int64) float64 { return FloorProb(cf, sh.totalToks) }

// GlobalDoc maps a shard-local document ID back to the global DocID.
func (sh *Sharded) GlobalDoc(shard int, local DocID) DocID {
	return local*DocID(len(sh.shards)) + DocID(shard)
}
