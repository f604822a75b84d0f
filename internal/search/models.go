package search

import "math"

// Model selects the retrieval function. The paper's model is Dirichlet-
// smoothed query likelihood; the alternatives exist for comparison
// studies (the "retrieval substrate" ablation) and for downstream users
// who prefer them.
type Model int

const (
	// ModelDirichlet is Dirichlet-smoothed query likelihood (the paper's
	// retrieval model, Section 2.3). Parameter: Mu.
	ModelDirichlet Model = iota
	// ModelJelinekMercer is JM-smoothed query likelihood:
	// P(w|D) = (1−λ)·tf/|D| + λ·P(w|C). Parameter: Lambda.
	ModelJelinekMercer
	// ModelBM25 is Okapi BM25 with IDF per leaf. Parameters: K1, B.
	// Phrase and window leaves score like terms, with df/cf computed
	// from their materialised postings.
	ModelBM25
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelDirichlet:
		return "dirichlet"
	case ModelJelinekMercer:
		return "jelinek-mercer"
	case ModelBM25:
		return "bm25"
	default:
		return "unknown"
	}
}

// ModelParams bundles every model's parameters with sensible defaults.
type ModelParams struct {
	// Mu is Dirichlet's pseudo-count (default 2500).
	Mu float64
	// Lambda is JM's collection interpolation (default 0.4).
	Lambda float64
	// K1 and B are BM25's saturation and length normalisation
	// (defaults 1.2 and 0.75).
	K1, B float64
}

func (p ModelParams) withDefaults() ModelParams {
	if p.Mu <= 0 {
		p.Mu = DefaultMu
	}
	if p.Lambda <= 0 || p.Lambda >= 1 {
		p.Lambda = 0.4
	}
	if p.K1 <= 0 {
		p.K1 = 1.2
	}
	if p.B <= 0 || p.B > 1 {
		// B = 0 (no length normalisation) must be requested via an
		// explicit tiny value; the zero value means "default".
		p.B = 0.75
	}
	return p
}

// scorer computes one leaf's contribution for a document.
type scorer func(l *leaf, tf int32, docLen float64) float64

// collStats are the collection-level statistics a scorer closes over.
// For an unsharded searcher they come straight from the index; the
// sharded evaluator passes the cross-shard globals so every shard builds
// the same closure (the global-stats invariant behind bit-identical
// sharded scoring).
type collStats struct {
	numDocs   float64
	avgDocLen float64
}

// prepareLeaves fills the per-leaf scoring caches that depend on the
// model and the (possibly overridden) collection statistics — today
// just BM25's idf. It MUST run after any cross-shard statistics
// override (the sharded evaluators rewrite df) and before the scorer or
// the bound machinery touches the leaves: both read l.idf instead of
// recomputing the log per posting. The cached value is the exact
// expression the scorer previously evaluated inline, so scores are
// bit-identical — the same double, computed once.
func prepareLeaves(model Model, cs collStats, leaves []leaf) {
	if model != ModelBM25 {
		return
	}
	for i := range leaves {
		l := &leaves[i]
		l.idf = math.Log((cs.numDocs-l.df+0.5)/(l.df+0.5) + 1)
	}
}

// buildScorer builds the scoring closure for a model from explicit
// collection statistics. Per-leaf statistics (collProb, df) are read
// from the leaf at scoring time, so overriding them steers smoothing
// without touching the closure. The closure is read-only after
// construction and safe to share across goroutines.
func buildScorer(model Model, params ModelParams, cs collStats) scorer {
	switch model {
	case ModelJelinekMercer:
		lambda := params.Lambda
		return func(l *leaf, tf int32, docLen float64) float64 {
			var ml float64
			if docLen > 0 {
				ml = float64(tf) / docLen
			}
			return l.weight * math.Log((1-lambda)*ml+lambda*l.collProb)
		}
	case ModelBM25:
		k1, b := params.K1, params.B
		avgdl := cs.avgDocLen
		if avgdl == 0 {
			avgdl = 1
		}
		return func(l *leaf, tf int32, docLen float64) float64 {
			if tf == 0 {
				return 0 // BM25 has no background mass
			}
			// l.idf was cached by prepareLeaves (same expression, computed
			// once per leaf instead of once per scored posting).
			t := float64(tf)
			return l.weight * l.idf * (t * (k1 + 1)) / (t + k1*(1-b+b*docLen/avgdl))
		}
	default:
		mu := params.Mu
		return func(l *leaf, tf int32, docLen float64) float64 {
			return l.weight * math.Log((float64(tf)+mu*l.collProb)/(docLen+mu))
		}
	}
}
