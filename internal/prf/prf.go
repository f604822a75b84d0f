// Package prf implements pseudo-relevance feedback as the paper's
// Section 4.3 describes it: an adaptation of Lavrenko's relevance model
// [Lavrenko & Croft, SIGIR'01]. The original query Q retrieves a ranked
// list of documents ordered by P(Q|D); the relevance model
//
//	P(w|Q) = Σ_D P(w|D) · P(Q|D) · P(D) / P(Q)
//
// is estimated over the top fbDocs documents (uniform P(D)); the top
// fbTerms concepts by P(w|Q) become the expansion features. With
// OrigWeight = 0 the reformulated query consists of those concepts alone
// (the paper's configuration — which is exactly why PRF collapses on
// collections where the initial ranking is poor); OrigWeight > 0 gives
// the usual RM3 interpolation.
package prf

import (
	"context"
	"math"
	"sort"

	"repro/internal/search"
)

// Config parameterises the relevance model.
type Config struct {
	// FbDocs is the number of feedback documents (default 10).
	FbDocs int
	// FbTerms is the number of expansion concepts kept (default 20).
	FbTerms int
	// OrigWeight interpolates the original query into the reformulated
	// one: 0 replaces the query with the feedback concepts (paper), 0.5
	// is classic RM3.
	OrigWeight float64
}

// DefaultConfig mirrors the common Indri defaults.
func DefaultConfig() Config { return Config{FbDocs: 10, FbTerms: 20} }

func (c Config) withDefaults() Config {
	if c.FbDocs <= 0 {
		c.FbDocs = 10
	}
	if c.FbTerms <= 0 {
		c.FbTerms = 20
	}
	return c
}

// WeightedTerm is a feedback concept with its relevance-model
// probability.
type WeightedTerm struct {
	Term   string
	Weight float64
}

// RelevanceModel estimates P(w|Q) over the top feedback documents of q
// and returns the top fbTerms concepts by weight. It returns nil when
// the query retrieves nothing, and the feedback retrieval's error —
// ctx's included — when it fails.
func RelevanceModel(ctx context.Context, s *search.Searcher, q search.Node, cfg Config) ([]WeightedTerm, error) {
	cfg = cfg.withDefaults()
	top, err := s.SearchContext(ctx, q, cfg.FbDocs)
	if err != nil || len(top) == 0 {
		return nil, err
	}
	// Convert log P(Q|D) scores into normalised probabilities.
	maxScore := top[0].Score
	probs := make([]float64, len(top))
	var z float64
	for i, r := range top {
		probs[i] = math.Exp(r.Score - maxScore)
		z += probs[i]
	}
	ix := s.Index()
	model := make(map[int32]float64)
	for i, r := range top {
		pqd := probs[i] / z
		dl := float64(ix.DocLen(r.Doc))
		if dl == 0 {
			continue
		}
		for _, tf := range ix.DocVector(r.Doc) {
			// Maximum-likelihood P(w|D); the Dirichlet background mass
			// cancels in the top-n cut and only dampens the weights.
			model[tf.Term] += pqd * float64(tf.Freq) / dl
		}
	}
	terms := make([]WeightedTerm, 0, len(model))
	for tid, w := range model {
		terms = append(terms, WeightedTerm{Term: ix.TermText(tid), Weight: w})
	}
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].Weight != terms[j].Weight {
			return terms[i].Weight > terms[j].Weight
		}
		return terms[i].Term < terms[j].Term
	})
	if len(terms) > cfg.FbTerms {
		terms = terms[:cfg.FbTerms]
	}
	return terms, nil
}

// Reformulate runs the relevance model and builds the reformulated query:
// a #weight over the feedback concepts, optionally interpolated with the
// original query by cfg.OrigWeight. When feedback produces no concepts
// the original query is returned unchanged; when the feedback retrieval
// fails, its error is.
func Reformulate(ctx context.Context, s *search.Searcher, q search.Node, cfg Config) (search.Node, error) {
	terms, err := RelevanceModel(ctx, s, q, cfg)
	if err != nil {
		return nil, err
	}
	if len(terms) == 0 {
		return q, nil
	}
	weights := make([]float64, len(terms))
	nodes := make([]search.Node, len(terms))
	for i, t := range terms {
		weights[i] = t.Weight
		nodes[i] = search.Term{Text: t.Term}
	}
	fb := search.Weight(weights, nodes)
	if cfg.OrigWeight <= 0 {
		return fb, nil
	}
	return search.Weight(
		[]float64{cfg.OrigWeight, 1 - cfg.OrigWeight},
		[]search.Node{q, fb},
	), nil
}
