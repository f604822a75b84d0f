package motif

import (
	"fmt"
	"sort"

	"repro/internal/kb"
)

// This file implements the paper's stated future work (Section 6): "a
// learning algorithm that is capable of identifying such motifs
// automatically". The miner searches a space of motif templates — each a
// combination of a link condition and a category condition — and scores
// every template against ground-truth query graphs (query node → known
// good expansion articles). Templates are ranked by F-measure of the
// article sets they select, which is exactly the criterion the paper's
// hand-crafted motifs optimise implicitly (precision of the expansion
// features against the optimal query graph, without sacrificing all
// recall).

// LinkCond is the hyperlink condition of a motif template.
type LinkCond uint8

const (
	// LinkAny requires a link q→e.
	LinkAny LinkCond = iota
	// LinkReciprocal requires links q→e and e→q.
	LinkReciprocal
)

// String implements fmt.Stringer.
func (l LinkCond) String() string {
	if l == LinkReciprocal {
		return "reciprocal"
	}
	return "any-link"
}

// CatCond is the category condition of a motif template.
type CatCond uint8

const (
	// CatNone imposes no category condition.
	CatNone CatCond = iota
	// CatShared requires at least one shared category (a length-3 cycle).
	CatShared
	// CatSuperset requires categories(q) ⊆ categories(e) — the paper's
	// triangular condition.
	CatSuperset
	// CatParent requires a category of one node to directly contain a
	// category of the other — the paper's square condition.
	CatParent
)

// String implements fmt.Stringer.
func (c CatCond) String() string {
	switch c {
	case CatShared:
		return "shared-category"
	case CatSuperset:
		return "category-superset"
	case CatParent:
		return "category-parent"
	default:
		return "no-category"
	}
}

// Template is one candidate motif: a link condition plus a category
// condition.
type Template struct {
	Link LinkCond
	Cat  CatCond
}

// String implements fmt.Stringer.
func (t Template) String() string { return fmt.Sprintf("%s+%s", t.Link, t.Cat) }

// AllTemplates enumerates the template space.
func AllTemplates() []Template {
	var out []Template
	for _, l := range []LinkCond{LinkAny, LinkReciprocal} {
		for _, c := range []CatCond{CatNone, CatShared, CatSuperset, CatParent} {
			out = append(out, Template{Link: l, Cat: c})
		}
	}
	return out
}

// GroundTruth is one training example for the miner: a query node and
// the articles its optimal query graph contains.
type GroundTruth struct {
	QueryNode kb.NodeID
	Good      []kb.NodeID
}

// TemplateScore is the evaluation of one template over the ground truth.
type TemplateScore struct {
	Template Template
	// Precision is |selected ∩ good| / |selected|, micro-averaged.
	Precision float64
	// Recall is |selected ∩ good| / |good|, micro-averaged.
	Recall float64
	// F1 is the harmonic mean of the two.
	F1 float64
	// AvgSelected is the mean number of articles the template selects
	// per query — the footprint the paper reports as "expansion features
	// per query".
	AvgSelected float64
}

// Miner scores motif templates against ground-truth query graphs.
type Miner struct {
	g *kb.Graph
}

// NewMiner returns a Miner over g.
func NewMiner(g *kb.Graph) *Miner { return &Miner{g: g} }

// selects reports whether the template admits e as an expansion of q.
func (m *Miner) selects(t Template, q, e kb.NodeID) bool {
	if !m.g.HasLink(q, e) {
		return false
	}
	if t.Link == LinkReciprocal && !m.g.HasLink(e, q) {
		return false
	}
	qCats := m.g.Categories(q)
	eCats := m.g.Categories(e)
	switch t.Cat {
	case CatNone:
		return true
	case CatShared:
		return sharedAny(qCats, eCats)
	case CatSuperset:
		return triangularInstances(qCats, eCats) > 0
	case CatParent:
		n := (&Matcher{g: m.g}).squareInstances(qCats, eCats)
		return n > 0
	}
	return false
}

// sharedAny reports whether two sorted category lists intersect.
func sharedAny(a, b []kb.NodeID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Score evaluates every template against the ground truth and returns
// scores sorted by descending F1 (ties: higher precision first).
func (m *Miner) Score(truth []GroundTruth) []TemplateScore {
	var out []TemplateScore
	for _, t := range AllTemplates() {
		var tp, sel, good int
		for _, gt := range truth {
			goodSet := make(map[kb.NodeID]bool, len(gt.Good))
			for _, a := range gt.Good {
				goodSet[a] = true
			}
			good += len(gt.Good)
			for _, e := range m.g.OutLinks(gt.QueryNode) {
				if e == gt.QueryNode {
					continue
				}
				if m.selects(t, gt.QueryNode, e) {
					sel++
					if goodSet[e] {
						tp++
					}
				}
			}
		}
		s := TemplateScore{Template: t}
		if sel > 0 {
			s.Precision = float64(tp) / float64(sel)
		}
		if good > 0 {
			s.Recall = float64(tp) / float64(good)
		}
		if s.Precision+s.Recall > 0 {
			s.F1 = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
		}
		if len(truth) > 0 {
			s.AvgSelected = float64(sel) / float64(len(truth))
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].F1 != out[j].F1 {
			return out[i].F1 > out[j].F1
		}
		return out[i].Precision > out[j].Precision
	})
	return out
}
