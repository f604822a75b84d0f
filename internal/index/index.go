// Package index implements the positional inverted index behind the
// reproduction's Indri-like retrieval substrate. It stores, per term, the
// documents it occurs in, term frequencies and token positions, plus the
// collection statistics (collection frequency, total token count) that
// Dirichlet-smoothed query-likelihood scoring needs.
package index

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/analysis"
)

// DocID identifies a document in an Index; IDs are dense, 0..NumDocs-1,
// assigned in insertion order.
type DocID int32

// Postings is the inverted list of one term: parallel slices sorted by
// document ID.
type Postings struct {
	// Docs are the documents containing the term, ascending.
	Docs []DocID
	// Freqs[i] is the term frequency in Docs[i].
	Freqs []int32
	// Positions[i] are the token positions of the term in Docs[i],
	// ascending.
	Positions [][]int32
}

// CollectionFreq returns the total number of occurrences of the term in
// the collection.
func (p *Postings) CollectionFreq() int64 {
	var cf int64
	for _, f := range p.Freqs {
		cf += int64(f)
	}
	return cf
}

// reset empties p, keeping its capacity for reuse as a scratch row.
func (p *Postings) reset() {
	p.Docs, p.Freqs, p.Positions = p.Docs[:0], p.Freqs[:0], p.Positions[:0]
}

// Index is an immutable positional inverted index. Build one with a
// Builder, or Open a FormatV2 file.
type Index struct {
	analyzer analysis.Analyzer
	terms    map[string]int32
	// postings holds an in-memory index's rows; nil on a v2-backed one,
	// which keeps no row (see readRow). cf[id] is row id's collection
	// frequency, counted as the Builder made the row (a v2-backed index
	// reads lazy.cf instead).
	postings []Postings
	cf       []int64
	termText []string

	docNames  []string
	docLens   []int32
	totalToks int64

	fwdOnce sync.Once
	forward [][]TermFreq

	// Per-term score-bound metadata (see bounds.go): loaded with a v2
	// file, computed lazily on first use otherwise, so an in-memory index
	// does not pay the scan unless pruning runs.
	boundsOnce sync.Once
	termBounds []TermBounds
	minDocLen  int32

	// The v2 block directory's summaries (see blocks.go), loaded and
	// validated by Open and never written after; nil in memory.
	blockBounds [][]BlockBounds
	blockSize   int // 0 means DefaultBlockSize

	// lazy is the mmap-backed postings source of a FormatV2 index (see
	// v2.go); nil for in-memory indexes.
	lazy *lazyPostings

	// positionals memoises resolved phrase/window leaves for the life of
	// the index (see positional.go). Usable from its zero value.
	positionals positionalMemo
}

// Close releases the resources of an index loaded from a FormatV2 file
// (the mmap region); it is a no-op for in-memory indexes. What was
// copied out before Close stays valid: resolved phrase/window leaves and
// the rows PostingsFor returned. Reads of the mapping after Close are
// refused, not performed — a cursor exhausts, a phrase or window resolves
// empty, a row reads empty, and Err names the Close — so the index must
// not be searched after it.
func (ix *Index) Close() error {
	if ix.lazy == nil {
		return nil
	}
	return ix.lazy.close()
}

// Err reports the first corruption the lazy decoder hit (nil for
// in-memory indexes and healthy files). Open's integrity checks make
// this unreachable for randomly corrupted files; it is the
// defense-in-depth surface for the residual cases (see v2.go).
func (ix *Index) Err() error {
	if ix.lazy == nil {
		return nil
	}
	return ix.lazy.err()
}

// readRow returns term id's postings row: an in-memory index's own row,
// shared, or a v2-backed index's decoded into scratch, which the caller
// owns. It is the one whole-row reader of a v2 file — re-encoding, the
// shard split and PostingsFor read through it; queries, the forward
// index and WithVerify read through block cursors (stream.go). A closed
// mapping is not read. A failed checksum or decode, and a stored block
// summary or cf the postings contradict, are recorded on Err, as a
// cursor records them, and nothing Open validated is rewritten; a term
// that fails yields the empty row.
func (ix *Index) readRow(id int32, scratch *Postings) *Postings {
	lz := ix.lazy
	if lz == nil {
		return &ix.postings[id]
	}
	p := scratch
	p.reset()
	if lz.closed.Load() {
		lz.record(fmt.Errorf("index: term %q read after Close", ix.termText[id]))
		return p
	}
	for b, want := range ix.blockBounds[id] {
		slot, buf, base, cnt := lz.blockAt(ix, id, b)
		if !lz.verifyBlock(slot, buf) {
			lz.record(fmt.Errorf("index: term %q block %d checksum mismatch", ix.termText[id], b))
			p.reset()
			return p
		}
		derived, err := decodeBlock(buf, base, cnt, int32(len(ix.docLens)), ix.docLens, p)
		if err != nil {
			lz.record(fmt.Errorf("index: term %q block %d: %w", ix.termText[id], b, err))
			p.reset()
			return p
		}
		if derived != want {
			lz.record(errBoundsLie(ix, id, b))
		}
	}
	if got := p.CollectionFreq(); got != lz.cf[id] {
		lz.record(errCFLie(ix, id, got))
	}
	return p
}

// StreamableTerm reports whether term can be served by a streaming
// block cursor — the index is backed by a FormatV2 file — and returns
// its ID. The stored per-term bounds (StoredTermBounds) are then
// readable without decoding any postings.
func (ix *Index) StreamableTerm(term string) (int32, bool) {
	if ix.lazy == nil {
		return 0, false
	}
	id, ok := ix.terms[term]
	return id, ok
}

// StoredTermStats returns term id's document and collection frequencies
// as stored when its row was made — by the Builder, a seal of a live
// buffer, or the writer of a v2 file — without a pass over its postings.
func (ix *Index) StoredTermStats(id int32) (df int, cf int64) {
	if ix.lazy == nil {
		return len(ix.postings[id].Docs), ix.cf[id]
	}
	return int(ix.lazy.df[id]), ix.lazy.cf[id]
}

// StoredTermBounds returns term id's whole-list bound summary as loaded
// (and cross-validated against the block directory) by Open, without
// decoding its postings. Only valid on an index for which
// StreamableTerm reported true.
func (ix *Index) StoredTermBounds(id int32) TermBounds {
	return ix.termBounds[id]
}

// PostingsByID returns term id's postings row. On an in-memory index
// the row is shared with the index and must not be modified; on a
// v2-backed one every call decodes a fresh row the caller owns, and the
// index keeps none of it.
func (ix *Index) PostingsByID(id int32) *Postings {
	return ix.readRow(id, new(Postings))
}

// Analyzer returns the analyzer documents were indexed with; queries must
// use the same one.
func (ix *Index) Analyzer() analysis.Analyzer { return ix.analyzer }

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return len(ix.docNames) }

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int { return len(ix.termText) }

// TotalTokens returns the collection length |C| in tokens (post-analysis).
func (ix *Index) TotalTokens() int64 { return ix.totalToks }

// DocName returns the external name of doc.
func (ix *Index) DocName(doc DocID) string { return ix.docNames[doc] }

// DocLen returns the document length |D| in tokens (post-analysis).
func (ix *Index) DocLen(doc DocID) int32 { return ix.docLens[doc] }

// TermID resolves an analyzed term to its internal ID; ok is false when
// the term does not occur in the collection.
func (ix *Index) TermID(term string) (int32, bool) {
	id, ok := ix.terms[term]
	return id, ok
}

// TermText returns the text of term id.
func (ix *Index) TermText(id int32) string { return ix.termText[id] }

// PostingsFor returns the postings of an analyzed term, or nil when the
// term is out of vocabulary. As with PostingsByID, an in-memory index's
// row is shared and must not be modified, and a v2-backed index decodes
// a fresh one per call.
func (ix *Index) PostingsFor(term string) *Postings {
	id, ok := ix.terms[term]
	if !ok {
		return nil
	}
	return ix.PostingsByID(id)
}

// FloorProb converts a collection frequency into a probability with a
// 0.5-occurrence floor (the usual OOV treatment in LM retrieval).
func (ix *Index) FloorProb(cf int64) float64 { return FloorProb(cf, ix.totalToks) }

// FloorProb is P(w|C) = cf/|C| over a collection of totalToks tokens,
// floored at half an occurrence for out-of-vocabulary leaves. Every
// collection view (Index, Sharded, Snapshot, the search coordinator's
// cross-partition totals) goes through this one expression — sharded,
// segmented and distributed scores are bit-identical to monolithic ones
// only while they all agree on it.
func FloorProb(cf, totalToks int64) float64 {
	if totalToks == 0 {
		return 1e-12
	}
	if cf <= 0 {
		return 0.5 / float64(totalToks)
	}
	return float64(cf) / float64(totalToks)
}

// String summarises the index.
func (ix *Index) String() string {
	return fmt.Sprintf("index: %d docs, %d terms, %d tokens", ix.NumDocs(), ix.NumTerms(), ix.TotalTokens())
}

// Builder accumulates documents and produces an Index. Not safe for
// concurrent use.
type Builder struct {
	analyzer analysis.Analyzer
	terms    map[string]int32
	termText []string
	// per-term accumulation, parallel to termText
	docs  [][]DocID
	freqs [][]int32
	pos   [][][]int32
	cf    []int64

	docNames  []string
	docLens   []int32
	totalToks int64
}

// NewBuilder returns a Builder using the given analyzer.
func NewBuilder(a analysis.Analyzer) *Builder {
	return &Builder{analyzer: a, terms: make(map[string]int32)}
}

// Add indexes one document and returns its DocID. name is the external
// document identifier used in run files and qrels.
func (b *Builder) Add(name, text string) DocID {
	doc := DocID(len(b.docNames))
	b.docNames = append(b.docNames, name)
	toks := b.analyzer.Analyze(text)
	b.docLens = append(b.docLens, int32(len(toks)))
	b.totalToks += int64(len(toks))
	for _, t := range toks {
		id, ok := b.terms[t.Term]
		if !ok {
			id = int32(len(b.termText))
			b.terms[t.Term] = id
			b.termText = append(b.termText, t.Term)
			b.docs = append(b.docs, nil)
			b.freqs = append(b.freqs, nil)
			b.pos = append(b.pos, nil)
			b.cf = append(b.cf, 0)
		}
		b.cf[id]++
		n := len(b.docs[id])
		if n > 0 && b.docs[id][n-1] == doc {
			b.freqs[id][n-1]++
			b.pos[id][n-1] = append(b.pos[id][n-1], int32(t.Position))
		} else {
			b.docs[id] = append(b.docs[id], doc)
			b.freqs[id] = append(b.freqs[id], 1)
			b.pos[id] = append(b.pos[id], []int32{int32(t.Position)})
		}
	}
	return doc
}

// Build finalises the index; the Builder must not be used afterwards.
func (b *Builder) Build() *Index {
	ix := &Index{
		analyzer:  b.analyzer,
		terms:     b.terms,
		termText:  b.termText,
		docNames:  b.docNames,
		docLens:   b.docLens,
		totalToks: b.totalToks,
		postings:  make([]Postings, len(b.termText)),
		cf:        b.cf,
	}
	for id := range b.termText {
		// Documents are added in increasing DocID order, so postings are
		// already sorted; assert in development builds via a cheap check.
		if !sort.SliceIsSorted(b.docs[id], func(i, j int) bool { return b.docs[id][i] < b.docs[id][j] }) {
			sortPostings(b.docs[id], b.freqs[id], b.pos[id])
		}
		ix.postings[id] = Postings{Docs: b.docs[id], Freqs: b.freqs[id], Positions: b.pos[id]}
	}
	b.docs, b.freqs, b.pos, b.cf = nil, nil, nil, nil
	return ix
}

// sortPostings sorts the three parallel slices by DocID. Only needed if a
// caller ever feeds documents out of order (future-proofing for merge
// builds).
func sortPostings(docs []DocID, freqs []int32, pos [][]int32) {
	idx := make([]int, len(docs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return docs[idx[i]] < docs[idx[j]] })
	nd := make([]DocID, len(docs))
	nf := make([]int32, len(freqs))
	np := make([][]int32, len(pos))
	for i, k := range idx {
		nd[i], nf[i], np[i] = docs[k], freqs[k], pos[k]
	}
	copy(docs, nd)
	copy(freqs, nf)
	copy(pos, np)
}
