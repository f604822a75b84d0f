package search

import (
	"math"

	"repro/internal/index"
)

// DefaultMu is the Dirichlet smoothing parameter μ. 2500 is Indri's
// long-standing default and works well for short caption-style documents.
const DefaultMu = 2500

// resolveMu is the μ a configured value scores with: a non-positive one
// means DefaultMu.
func resolveMu(mu float64) float64 {
	if mu <= 0 {
		return DefaultMu
	}
	return mu
}

// dirichlet is leaf l's contribution to a document of docLen tokens
// holding it tf times: weight · log P(l|D) under Dirichlet smoothing,
// P(l|D) = (tf + μ·P(l|C)) / (|D| + μ). Explain, and through it the
// test oracle, score with it; the top-k loop computes the same
// expression factored (pass.score).
func dirichlet(l *leaf, tf int32, docLen, mu float64) float64 {
	return l.weight * math.Log((float64(tf)+mu*l.collProb)/(docLen+mu))
}

// Result is one ranked document.
type Result struct {
	Doc   index.DocID
	Name  string
	Score float64
}

// Searcher evaluates structured queries against an index: the
// coordinator over one partition, the whole index. Its configuration —
// Mu, DisablePruning — is the promoted ShardConfig, and Evaluate
// evaluates several trees in one pass.
type Searcher struct {
	coordinator
	ix *index.Index
}

// NewSearcher returns a Searcher over ix with the default μ.
func NewSearcher(ix *index.Index) *Searcher {
	return &Searcher{
		coordinator: coordinator{
			shards: 1,
			pin:    fixed(&localPartition{ix: ix}),
		},
		ix: ix,
	}
}

// Index returns the underlying index.
func (s *Searcher) Index() *index.Index { return s.ix }

// leaf is a flattened query leaf: its postings, its collection
// statistics and its accumulated (normalised, multiplied-through)
// weight. cf (collection frequency) defaults to the index the leaf was
// flattened against; the sharded evaluator overrides it — and collProb —
// with global cross-shard sums so every shard scores with identical
// collection statistics.
type leaf struct {
	weight   float64
	postings index.Postings
	collProb float64
	cf       int64
	// maxTF is the largest term frequency in the postings, the one
	// summary the Dirichlet bound needs: term leaves read the index's
	// precomputed metadata, phrase/window leaves the summary their memo
	// entry was filled with, so positional bounds are just as tight.
	maxTF int32
	// termID is the index's ID of a term leaf's term, -1 for an out-of-
	// vocabulary term and for phrase/window leaves; positional is the memo
	// entry a phrase/window leaf was resolved to, nil for term leaves.
	// Together they name the leaf within its index, which is what a live
	// segment's tombstone corrections are memoised under.
	termID     int32
	positional *index.Positional
	// stream marks a term leaf of a v2-backed index that the top-k loop
	// walk through a streaming block cursor instead of a materialised
	// postings row: postings stays empty and termID names the row.
	stream bool
	// nPost is the leaf's postings count independent of materialisation
	// (len(postings.Docs) for materialised leaves, the stored df for
	// streaming ones) — what cost decisions consult instead of touching
	// rows.
	nPost int
}

// flatten walks the query tree over ix, multiplying normalised weights
// down to the leaves. Empty leaves are kept (they contribute only
// background mass) — dropping them would change ranking between two
// queries that differ in an OOV term, which matters for the QL
// baselines.
//
// Phrase and window leaves come out of the index's positional memo
// (index.PhraseLeaf / WindowLeaf; DESIGN.md §8.3): fs holds the lookup
// key, and st, when non-nil, counts the leaves found resolved against
// the intersections this call had to run. With fs.resolved a node
// flattened before in the same call is copied from its first leaf, not
// looked up again.
func flatten(ix *index.Index, n Node, w float64, out *[]leaf, fs *flatScratch, st *SearchStats) {
	if w <= 0 {
		return
	}
	switch x := n.(type) {
	case Term:
		if x.Text == "" {
			return
		}
		*out = append(*out, termLeaf(ix, x.Text, w))
	case Phrase:
		switch len(x.Terms) {
		case 0:
		case 1:
			// #1(t) is t: the term's own row, never a copy of it.
			*out = append(*out, termLeaf(ix, x.Terms[0], w))
		default:
			fs.positionalLeaf(ix, x.Terms, -1, w, out, st)
		}
	case Unordered:
		switch {
		case len(x.Terms) == 0:
		case len(x.Terms) == 1 && x.Width >= 1:
			*out = append(*out, termLeaf(ix, x.Terms[0], w))
		default:
			fs.positionalLeaf(ix, x.Terms, x.Width, w, out, st)
		}
	case Weighted:
		var total float64
		for _, c := range x.Children {
			if c.Weight > 0 && !IsEmpty(c.Node) {
				total += c.Weight
			}
		}
		if total <= 0 {
			return
		}
		for _, c := range x.Children {
			if c.Weight > 0 && !IsEmpty(c.Node) {
				flatten(ix, c.Node, w*c.Weight/total, out, fs, st)
			}
		}
	}
}

// termLeaf is the leaf of one analysed term: streaming on a v2-backed
// index, the shared materialised row otherwise, empty when the term is
// out of vocabulary. Either way its cf is the one the index stored with
// the row, not a pass over it.
func termLeaf(ix *index.Index, term string, w float64) leaf {
	if id, ok := ix.StreamableTerm(term); ok {
		// v2-backed term leaf: stats and bounds come from the stored
		// (Open-cross-validated) metadata; the postings stay on disk
		// until a block cursor touches them.
		return newStreamLeaf(ix, w, id)
	}
	id, ok := ix.TermID(term)
	if !ok {
		return newLeaf(ix, w, index.Postings{}, 0, 0)
	}
	_, cf := ix.StoredTermStats(id)
	b, _ := ix.BoundsFor(term)
	l := newLeaf(ix, w, *ix.PostingsByID(id), cf, b.MaxTF)
	l.termID = id
	return l
}

// flatScratch is flatten's reusable state: the positional memo's lookup
// key and, across the trees of one request, the phrase and window nodes
// already resolved.
type flatScratch struct {
	positional index.PositionalScratch
	// resolved maps a phrase or window node to the position in flatten's
	// output of its first leaf. A request's trees share their title
	// nodes (core builds one per article), so each resolves once. A key
	// names a node by its terms' backing array, which the node's builder
	// must not modify; a node built afresh with equal terms misses and
	// resolves again. Nil: every node resolves.
	resolved map[positionalNode]int
}

// positionalNode is a phrase or window node's key in flatScratch.resolved:
// its terms' first element and length, and its width (-1: a phrase).
type positionalNode struct {
	terms    *string
	n, width int
}

// positionalLeaf appends the leaf of the phrase (width -1) or window
// over terms at weight w: a copy of the node's first leaf when the call
// resolved it already, else the index's memo entry.
func (fs *flatScratch) positionalLeaf(ix *index.Index, terms []string, width int, w float64, out *[]leaf, st *SearchStats) {
	key := positionalNode{terms: &terms[0], n: len(terms), width: width}
	if at, ok := fs.resolved[key]; ok {
		l := (*out)[at]
		l.weight = w
		*out = append(*out, l)
		return
	}
	var p *index.Positional
	var hit bool
	if width < 0 {
		p, hit = ix.PhraseLeaf(terms, &fs.positional)
	} else {
		p, hit = ix.WindowLeaf(terms, width, &fs.positional)
	}
	if fs.resolved != nil {
		fs.resolved[key] = len(*out)
	}
	*out = append(*out, resolvedLeaf(ix, w, p, hit, st))
}

// resolvedLeaf is the leaf of a resolved phrase or window. It shares
// the memo entry's rows, which every consumer only reads.
func resolvedLeaf(ix *index.Index, w float64, p *index.Positional, hit bool, st *SearchStats) leaf {
	if st != nil {
		if hit {
			st.PositionalHits++
		} else {
			st.PositionalMisses++
		}
	}
	l := newLeaf(ix, w, index.Postings{Docs: p.Docs, Freqs: p.Freqs}, p.CF, p.Bounds.MaxTF)
	l.positional = p
	return l
}

// newLeaf fills a leaf's collection statistics from the index it was
// flattened against. The leaf is anonymous (termID -1) until its caller
// names it.
func newLeaf(ix *index.Index, w float64, p index.Postings, cf int64, maxTF int32) leaf {
	return leaf{
		weight:   w,
		postings: p,
		collProb: ix.FloorProb(cf),
		cf:       cf,
		maxTF:    maxTF,
		termID:   -1,
		nPost:    len(p.Docs),
	}
}

// newStreamLeaf builds a streaming term leaf from the stored metadata
// of a v2-backed index — no postings are decoded here.
func newStreamLeaf(ix *index.Index, w float64, id int32) leaf {
	df, cf := ix.StoredTermStats(id)
	return leaf{
		weight:   w,
		collProb: ix.FloorProb(cf),
		cf:       cf,
		maxTF:    ix.StoredTermBounds(id).MaxTF,
		termID:   id,
		stream:   true,
		nPost:    df,
	}
}

// cancelCheckEvery is how many candidates the top-k loop draws between
// context checks. Checking costs one atomic load; at this granularity it
// is invisible next to scoring while still bounding the cancellation
// latency to a few hundred microseconds on any realistic index.
const cancelCheckEvery = 4096

// scoring is the resolved configuration of one evaluation: μ, the
// pruning switches, and whether the last run is a backfill run
// (EvalOptions.Backfill).
type scoring struct {
	mu             float64
	disablePruning bool
	forcePrune     bool
	backfill       bool
}

// findDoc binary-searches a sorted doc list, returning the row index or
// -1.
func findDoc(docs []index.DocID, doc index.DocID) int {
	lo, hi := 0, len(docs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if docs[mid] < doc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(docs) && docs[lo] == doc {
		return lo
	}
	return -1
}
