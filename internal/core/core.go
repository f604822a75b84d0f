// Package core implements Structural Query Expansion (SQE), the paper's
// primary contribution: the query-graph builder that materialises the
// structural motifs (Section 2.2), the query builder that assembles the
// three-part weighted expanded query (Section 2.3), and the SQE_C
// result-list combination (Section 2.2.1).
package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/kb"
	"repro/internal/motif"
	"repro/internal/search"
)

// Feature is an expansion feature: an article whose title will be added
// to the query, weighted by the number of motifs it appeared in.
type Feature struct {
	Article kb.NodeID
	// Weight is |m_a| for motif-built graphs, or an externally supplied
	// weight for ground-truth graphs.
	Weight float64
}

// QueryGraph is the paper's query graph: the query nodes plus the
// expansion nodes found around them.
type QueryGraph struct {
	QueryNodes []kb.NodeID
	Features   []Feature
}

// ExpansionArticles returns the expansion node IDs in feature order.
func (qg *QueryGraph) ExpansionArticles() []kb.NodeID {
	out := make([]kb.NodeID, len(qg.Features))
	for i, f := range qg.Features {
		out[i] = f.Article
	}
	return out
}

// Expander builds query graphs and expanded queries over a KB graph.
type Expander struct {
	graph    *kb.Graph
	matcher  *motif.Matcher
	analyzer analysis.Analyzer
	// titles[id] is node id's title as the analyzer renders it, filled
	// the first time a query names the node. It holds terms, not query
	// nodes: TitleWindowSlack may change between two queries.
	titles []atomic.Pointer[[]string]

	// Weights are the three-part combination weights (user query,
	// entity titles, expansion titles). The zero value means equal
	// thirds.
	Weights PartWeights
	// MaxFeatures caps the number of expansion features per query
	// (highest |m_a| first); 0 means unlimited, which is the paper's
	// configuration.
	MaxFeatures int
	// UniformFeatureWeights disables the |m_a|-proportional weighting
	// (ablation: every expansion feature weighs 1).
	UniformFeatureWeights bool
	// TitleWindowSlack switches title matching from exact phrases to
	// unordered windows of width len(title)+slack when non-negative
	// (Indri's #uwN; the looser proximity the paper's feature function
	// also supports). -1, the default, keeps exact phrase matching.
	TitleWindowSlack int
}

// PartWeights weights the three parts of the expanded query.
type PartWeights struct {
	Query     float64
	Entities  float64
	Expansion float64
}

// DefaultPartWeights are the three-part combination weights used when
// the Expander's Weights field is left zero: equal thirds, the natural
// reading of the paper's "three-part combination". The paper prescribes
// the within-part weighting (expansion features ∝ |m_a|) but not the
// part weights.
var DefaultPartWeights = PartWeights{Query: 1, Entities: 1, Expansion: 1}

// normalized returns the weights with the zero value defaulting to
// DefaultPartWeights.
func (w PartWeights) normalized() PartWeights {
	if w.Query == 0 && w.Entities == 0 && w.Expansion == 0 {
		return DefaultPartWeights
	}
	return w
}

// NewExpander returns an Expander with the paper's motif conditions.
func NewExpander(g *kb.Graph, a analysis.Analyzer) *Expander {
	return &Expander{
		graph:            g,
		matcher:          motif.NewMatcher(g),
		analyzer:         a,
		titles:           make([]atomic.Pointer[[]string], g.NumNodes()),
		TitleWindowSlack: -1,
	}
}

// titleTerms returns node id's analysed title, running the tokenizer
// and stemmer over it only the first time. Goroutines racing on a cold
// node all compute the same terms, so whichever store lands last is as
// good as the first. The slice is shared and read-only.
func (e *Expander) titleTerms(id kb.NodeID) []string {
	slot := &e.titles[id]
	if t := slot.Load(); t != nil {
		return *t
	}
	terms := e.analyzer.AnalyzeTerms(e.graph.Title(id))
	slot.Store(&terms)
	return terms
}

// titleNode renders one node's title under the configured proximity
// operator.
func (e *Expander) titleNode(id kb.NodeID) search.Node {
	if e.TitleWindowSlack >= 0 {
		return search.WindowOfTerms(e.titleTerms(id), e.TitleWindowSlack)
	}
	return search.PhraseOfTerms(e.titleTerms(id))
}

// Matcher exposes the underlying motif matcher so callers can toggle the
// ablation switches (reciprocity, category conditions).
func (e *Expander) Matcher() *motif.Matcher { return e.matcher }

// BuildQueryGraph runs motif search from queryNodes with the given motif
// set and returns the resulting query graph. Features arrive sorted by
// descending |m_a|.
func (e *Expander) BuildQueryGraph(queryNodes []kb.NodeID, set motif.Set) QueryGraph {
	matches := e.matcher.Expand(queryNodes, set)
	if e.MaxFeatures > 0 && len(matches) > e.MaxFeatures {
		matches = matches[:e.MaxFeatures]
	}
	qg := QueryGraph{QueryNodes: append([]kb.NodeID(nil), queryNodes...)}
	if len(matches) > 0 {
		qg.Features = make([]Feature, len(matches))
	}
	for i, m := range matches {
		w := float64(m.Motifs)
		if e.UniformFeatureWeights {
			w = 1
		}
		qg.Features[i] = Feature{Article: m.Article, Weight: w}
	}
	return qg
}

// GroundTruthGraph wraps an externally supplied optimal query graph
// (paper's ground truth [10]) in the QueryGraph form used by the query
// builder, for the SQE^UB upper bound.
func GroundTruthGraph(queryNodes []kb.NodeID, features []Feature) QueryGraph {
	return QueryGraph{
		QueryNodes: append([]kb.NodeID(nil), queryNodes...),
		Features:   append([]Feature(nil), features...),
	}
}

// entityPart builds the #combine of query-node title phrases.
func (e *Expander) entityPart(queryNodes []kb.NodeID) search.Node {
	nodes := make([]search.Node, 0, len(queryNodes))
	for _, q := range queryNodes {
		nodes = append(nodes, e.titleNode(q))
	}
	return search.Combine(nodes...)
}

// expansionPart builds the #weight over expansion-feature title phrases,
// each weighted proportionally to |m_a|.
func (e *Expander) expansionPart(features []Feature) search.Node {
	weights := make([]float64, 0, len(features))
	nodes := make([]search.Node, 0, len(features))
	for _, f := range features {
		weights = append(weights, f.Weight)
		nodes = append(nodes, e.titleNode(f.Article))
	}
	return search.Weight(weights, nodes)
}

// BuildQuery assembles the expanded query of Section 2.3: a three-part
// weighted combination of (i) the user's raw query, (ii) the query-node
// titles and (iii) the expansion-feature titles. Parts that are empty
// (no entities, no features) drop out with their weight renormalised by
// the #weight semantics.
func (e *Expander) BuildQuery(userQuery string, qg QueryGraph) search.Node {
	w := e.Weights.normalized()
	return search.Weight(
		[]float64{w.Query, w.Entities, w.Expansion},
		[]search.Node{
			search.BagOfWords(e.analyzer, userQuery),
			e.entityPart(qg.QueryNodes),
			e.expansionPart(qg.Features),
		},
	)
}

// Baseline query builders (Section 4's QL_Q, QL_E, QL_Q&E and Q_X).

// QLQuery is the non-expanded user query (QL_Q).
func (e *Expander) QLQuery(userQuery string) search.Node {
	return search.BagOfWords(e.analyzer, userQuery)
}

// QLEntities queries with the query-node titles only (QL_E).
func (e *Expander) QLEntities(queryNodes []kb.NodeID) search.Node {
	return e.entityPart(queryNodes)
}

// QLQueryEntities combines the user query and the query-node titles with
// equal weight (QL_Q&E).
func (e *Expander) QLQueryEntities(userQuery string, queryNodes []kb.NodeID) search.Node {
	return search.Weight(
		[]float64{1, 1},
		[]search.Node{search.BagOfWords(e.analyzer, userQuery), e.entityPart(queryNodes)},
	)
}

// QLExpansionOnly queries with the expansion features alone (Q_X) — the
// configuration the paper shows is *not* useful in isolation.
func (e *Expander) QLExpansionOnly(qg QueryGraph) search.Node {
	return e.expansionPart(qg.Features)
}

// DefaultSpliceCuts are the paper's SQE_C cut points: first 5 results
// from SQE_T, through rank 200 from SQE_T&S, remainder from SQE_S.
var DefaultSpliceCuts = [2]int{5, 200}

// ResultNames extracts the document names from a ranked result list.
func ResultNames(results []search.Result) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = r.Name
	}
	return out
}

// SpliceResultsC applies the paper's SQE_C combination — cut at
// DefaultSpliceCuts — to three ranked Result lists.
func SpliceResultsC(limit int, runT, runTS, runS []search.Result) []search.Result {
	return SpliceResults(limit, DefaultSpliceCuts, runT, runTS, runS)
}

// SpliceResults implements the SQE_C combination (Section 2.2.1): the
// result lists of differently-configured expansions are concatenated
// range-wise — runT fills the output through rank cuts[0], runTS through
// rank cuts[1] and runS up to limit (a cut <= 0 or beyond limit is
// limit). Each run contributes documents in its rank order, skipping
// ones already taken, until the output reaches its cut.
//
// Tie rule: when the same document name appears in more than one run —
// necessarily with different scores, since the three expansions build
// different queries — the Result (doc, score) of the *first* run in
// T → T&S → S order wins, regardless of which run the name was spliced
// from. The rule is deterministic and independent of how the runs were
// evaluated — together in one pass or one by one — so every engine
// shape splices byte-identically.
func SpliceResults(limit int, cuts [2]int, runT, runTS, runS []search.Result) []search.Result {
	runs := [3][]search.Result{runT, runTS, runS}
	// first maps each name to its Result in the first run that ranks it.
	// A spliced name leaves the map, so the map is also the set of names
	// still free to take.
	first := make(map[string]search.Result, len(runT)+len(runTS)+len(runS))
	for _, run := range runs {
		for _, r := range run {
			if _, ok := first[r.Name]; !ok {
				first[r.Name] = r
			}
		}
	}
	out := make([]search.Result, 0, min(limit, len(first)))
	for i, run := range runs {
		upto := limit
		if i < len(cuts) && cuts[i] > 0 && cuts[i] < limit {
			upto = cuts[i]
		}
		for _, r := range run {
			if len(out) >= upto {
				break
			}
			if f, ok := first[r.Name]; ok {
				delete(first, r.Name)
				out = append(out, f)
			}
		}
	}
	return out
}

// DescribeGraph renders a query graph for debugging and the CLI: query
// node titles plus the top expansion features with weights.
func (e *Expander) DescribeGraph(qg QueryGraph, maxFeatures int) string {
	names := make([]string, len(qg.QueryNodes))
	for i, q := range qg.QueryNodes {
		names[i] = e.graph.Title(q)
	}
	s := fmt.Sprintf("query nodes: %v; %d expansion features", names, len(qg.Features))
	feats := qg.Features
	if maxFeatures > 0 && len(feats) > maxFeatures {
		feats = feats[:maxFeatures]
	}
	if len(feats) > 0 {
		s += ":"
		for _, f := range feats {
			s += fmt.Sprintf(" %q(%.0f)", e.graph.Title(f.Article), f.Weight)
		}
	}
	return s
}

// SortFeatures orders features by descending weight then ascending
// article ID (the canonical order produced by BuildQueryGraph); exposed
// for callers that assemble graphs manually.
func SortFeatures(features []Feature) {
	sort.Slice(features, func(i, j int) bool {
		if features[i].Weight != features[j].Weight {
			return features[i].Weight > features[j].Weight
		}
		return features[i].Article < features[j].Article
	})
}
