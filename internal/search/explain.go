package search

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/index"
)

// Explanation breaks a document's score into per-leaf contributions —
// the debugging view behind cmd/sqe-inspect: which expansion features
// actually moved a document up the ranking.
type Explanation struct {
	Doc    index.DocID
	Name   string
	Score  float64
	Leaves []LeafContribution
}

// LeafContribution is one leaf's share of a document score.
type LeafContribution struct {
	// Leaf is the leaf's query syntax ("cable", "#1(cable car)").
	Leaf string
	// Weight is the leaf's normalised effective weight.
	Weight float64
	// TF is the document's term/phrase frequency for the leaf.
	TF int32
	// Contribution is weight · log P(leaf|D).
	Contribution float64
	// BackgroundOnly marks leaves the document does not contain (their
	// contribution is pure smoothing mass).
	BackgroundOnly bool
}

// Explain scores one document under q and attributes the score to the
// query's leaves, sorted by descending contribution above background
// (i.e. the leaves that helped most come first).
func (s *Searcher) Explain(q Node, doc index.DocID) Explanation {
	sc := getScratch()
	defer putScratch(sc)
	leaves := sc.leaves[:0]
	var names []string
	flattenNamed(s.ix, q, 1, &leaves, &names, &sc.flat)
	sc.leaves = leaves
	mu := resolveMu(s.Mu)
	dl := float64(s.ix.DocLen(doc))
	ex := Explanation{Doc: doc, Name: s.ix.DocName(doc)}
	contribs := make([]LeafContribution, len(leaves))
	// lift is how far each leaf raised the document above the leaf's own
	// background mass. It is kept per leaf index, not looked up by
	// syntax: two leaves can share theirs (RM3 repeats the user's terms
	// at a second weight).
	lift := make([]float64, len(leaves))
	order := make([]int, len(leaves))
	// A streaming leaf's tf is read through a block cursor, which decodes
	// at most the one block holding doc; a materialised row is searched.
	var cur index.TermCursor
	for li := range leaves {
		l := &leaves[li]
		tf := int32(0)
		if l.stream {
			cur.ResetStream(s.ix, l.termID)
			if cur.Advance(doc) == doc {
				tf = cur.Freq()
			}
		} else if i := findDoc(l.postings.Docs, doc); i >= 0 {
			tf = l.postings.Freqs[i]
		}
		contrib := dirichlet(l, tf, dl, mu)
		ex.Score += contrib
		contribs[li] = LeafContribution{
			Leaf:           names[li],
			Weight:         l.weight,
			TF:             tf,
			Contribution:   contrib,
			BackgroundOnly: tf == 0,
		}
		if tf > 0 {
			lift[li] = contrib - dirichlet(l, 0, dl, mu)
		}
		order[li] = li
	}
	// Matched leaves first, strongest lift first.
	sort.SliceStable(order, func(i, j int) bool { return lift[order[i]] > lift[order[j]] })
	for _, li := range order {
		ex.Leaves = append(ex.Leaves, contribs[li])
	}
	return ex
}

// flattenNamed mirrors flatten but also records each leaf's syntax.
func flattenNamed(ix *index.Index, n Node, w float64, out *[]leaf, names *[]string, fs *flatScratch) {
	if w <= 0 {
		return
	}
	switch x := n.(type) {
	case Term, Phrase, Unordered:
		before := len(*out)
		flatten(ix, n, w, out, fs, nil)
		for i := before; i < len(*out); i++ {
			*names = append(*names, x.(Node).String())
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
				flattenNamed(ix, c.Node, w*c.Weight/total, out, names, fs)
			}
		}
	}
}

// String renders the explanation, matched leaves first.
func (e Explanation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s score=%.4f\n", e.Name, e.Score)
	for _, l := range e.Leaves {
		marker := " "
		if !l.BackgroundOnly {
			marker = "*"
		}
		fmt.Fprintf(&sb, "  %s %-30s w=%.3f tf=%d contrib=%.4f\n", marker, l.Leaf, l.Weight, l.TF, l.Contribution)
	}
	return sb.String()
}
