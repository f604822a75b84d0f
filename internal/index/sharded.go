package index

import "fmt"

// Sharded partitions a document collection across S shards, each a full
// *Index over its subset of the documents. Documents are assigned
// round-robin by DocID: global document g lives in shard g mod S under
// the local ID g div S, so within a shard ascending local IDs correspond
// to ascending global IDs — per-shard DocID tie-breaks therefore agree
// with the global ordering, which is what lets a per-shard top-k merge
// reproduce single-index rankings exactly.
//
// The shards carry only shard-local postings and lengths; the collection
// statistics that smoothing needs (total tokens, collection frequencies)
// must be taken globally — search.ShardedSearcher overrides every query
// leaf's statistics with the cross-shard sums so Dirichlet scores are
// bit-identical to evaluating the unsharded index.
type Sharded struct {
	shards []*Index
}

// NewSharded splits ix into n round-robin shards. n is clamped to
// [1, NumDocs] (an empty index yields a single empty shard). With n == 1
// the original index is shared, not copied.
//
// Otherwise each shard is a FormatV2 image in one heap buffer, opened
// with the checks Open applies to a file, so it serves through the same
// streaming cursors as an mmap'd index and shares nothing with ix: ix
// may be closed once NewSharded returns. ix must therefore be an index a
// v2 file can hold (names and terms up to 64 KiB); NewSharded panics on
// one that is not. A v2-backed ix is read one term at a time into a
// reused row (readRow), so a block that fails its checksum or decode, or
// whose stored bounds its postings contradict, is recorded on ix.Err; a
// failed term splits as empty, and the shards' bounds are derived from
// what they hold.
func NewSharded(ix *Index, n int) *Sharded {
	if nd := ix.NumDocs(); n > nd {
		n = nd
	}
	if n < 1 {
		n = 1
	}
	sh := &Sharded{}
	if n == 1 {
		sh.shards = []*Index{ix}
		return sh
	}
	sh.shards = make([]*Index, n)
	for s, img := range splitImages(ix, n) {
		shard, err := openV2(img, nil)
		if err != nil {
			panic(fmt.Sprintf("index: shard %d of %d does not open: %v", s, n, err))
		}
		sh.shards[s] = shard
	}
	return sh
}

// splitImages writes the FormatV2 image of each of ix's n >= 2 shards at
// ix's block size: term by term in ix's term order, each term written to
// the shards its postings route to and left out of the others.
func splitImages(ix *Index, n int) [][]byte {
	out := make([]*v2Writer, n)
	docLens := make([][]int32, n) // per shard: its length column
	for s := range out {
		out[s] = newV2Writer(ix.analyzer, ix.blockSizeOf())
		out[s].post = make([]byte, 0, postingsCap(ix, n))
	}
	for g, name := range ix.docNames {
		out[g%n].doc(name, ix.docLens[g])
		docLens[g%n] = append(docLens[g%n], ix.docLens[g])
	}
	var scratch Postings
	rows := make([]Postings, n) // per shard: its part of the current term
	for id, text := range ix.termText {
		for s := range rows {
			rows[s].reset()
		}
		p := ix.readRow(int32(id), &scratch)
		for i, g := range p.Docs {
			// Docs ascend globally, and g div n is monotone within a
			// residue class, so each shard's row stays sorted.
			r := &rows[int(g)%n]
			r.Docs = append(r.Docs, g/DocID(n))
			r.Freqs = append(r.Freqs, p.Freqs[i])
			r.Positions = append(r.Positions, p.Positions[i])
		}
		for s, w := range out {
			if r := &rows[s]; len(r.Docs) > 0 {
				w.appendRows(r, 0, docLens[s])
				w.endTerm(text, len(r.Docs), r.CollectionFreq())
			}
		}
	}
	imgs := make([][]byte, n)
	for s := range out {
		imgs[s], out[s] = out[s].image(), nil
	}
	return imgs
}

// NumShards returns the shard count S.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

// Shard returns shard i as a standalone index over its documents.
func (sh *Sharded) Shard(i int) *Index { return sh.shards[i] }

// GlobalDoc maps a shard-local document ID back to the global DocID.
func (sh *Sharded) GlobalDoc(shard int, local DocID) DocID {
	return local*DocID(len(sh.shards)) + DocID(shard)
}
