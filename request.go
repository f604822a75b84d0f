package sqe

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/prf"
	"repro/internal/search"
)

// SearchRequest describes one retrieval through the SQE pipeline — the
// single request shape behind Engine.Do.
type SearchRequest struct {
	// Query is the user's free-text query.
	Query string
	// EntityTitles names the query entities explicitly (resolved against
	// the KB graph; unknown titles are errors). Empty means "link
	// automatically" when the engine has a linker, or "no entities".
	EntityTitles []string
	// MotifSet selects the expansion configuration. The zero value runs
	// the paper's SQE_C combination (T, T&S and S runs spliced at ranks
	// 5 and 200); MotifT/MotifTS/MotifS run a single configuration.
	MotifSet MotifSet
	// K is the number of results to return; it must be positive.
	K int
	// PRF, when non-nil, applies pseudo-relevance feedback on top of the
	// expanded (or baseline) query. It requires an explicit MotifSet or
	// Baseline: Do does not serve SQE_C∘PRF, which the paper's Table 3
	// reports and internal/experiments evaluates offline.
	PRF *PRFConfig
	// Baseline runs the plain query-likelihood baseline (QL_Q): no
	// expansion, no entities. It excludes MotifSet and EntityTitles.
	Baseline bool
	// CollectStats asks for per-stage instrumentation in the response.
	CollectStats bool
}

// Validate reports whether the request describes a well-formed pipeline
// run. Do rejects invalid requests with the same error before doing any
// work.
func (r SearchRequest) Validate() error {
	if r.K <= 0 {
		return fmt.Errorf("sqe: K must be positive, got %d", r.K)
	}
	switch r.MotifSet {
	case 0, MotifT, MotifS, MotifTS:
	default:
		return fmt.Errorf("sqe: unknown motif set %d", r.MotifSet)
	}
	if r.Baseline {
		if r.MotifSet != 0 {
			return errors.New("sqe: Baseline excludes MotifSet (the baseline runs no expansion)")
		}
		if len(r.EntityTitles) > 0 {
			return errors.New("sqe: Baseline excludes EntityTitles (the baseline runs no expansion)")
		}
	} else if r.PRF != nil && r.MotifSet == 0 {
		return errors.New("sqe: PRF requires an explicit MotifSet or Baseline (Do does not serve SQE_C with PRF; the experiments evaluate it offline)")
	}
	if p := r.PRF; p != nil {
		if p.FbDocs < 0 {
			return fmt.Errorf("sqe: PRF.FbDocs must not be negative, got %d", p.FbDocs)
		}
		if p.FbTerms < 0 {
			return fmt.Errorf("sqe: PRF.FbTerms must not be negative, got %d", p.FbTerms)
		}
		if math.IsNaN(p.OrigWeight) || p.OrigWeight < 0 || p.OrigWeight > 1 {
			return fmt.Errorf("sqe: PRF.OrigWeight must be in [0,1], got %v", p.OrigWeight)
		}
	}
	return nil
}

// SearchResponse is the result of one Engine.Do call.
type SearchResponse struct {
	// Results is the final ranking, at most K entries.
	Results []Result
	// Stats holds the pipeline instrumentation when the request set
	// CollectStats (Queries is always 1 — aggregate across requests with
	// PipelineStats.Add); nil otherwise.
	Stats *PipelineStats
	// Expansion is the expansion used to build the final query: the
	// single run's for an explicit MotifSet, the combined (T&S) run's
	// for SQE_C. Nil for Baseline requests, which expand nothing — and
	// for requests whose (T&S) expansion was degraded to the unexpanded
	// query (see Degraded.ExpansionFallbacks).
	Expansion *Expansion
	// Degraded reports what graceful degradation did to this request:
	// dropped shards, expansion fallbacks, transient-fault retries. Nil
	// when nothing happened — always nil on engines built without
	// WithDegradation.
	Degraded *Degradation
}

// Do runs one retrieval through the SQE pipeline; it is the retrieval
// entry point, and every request takes one path: the entities are
// resolved, the request's trees are built — one QL tree for Baseline,
// one expanded tree for a motif set, SQE_C's three (T, T&S, S) — PRF
// reformulates the tree when the request asks for it, one Evaluate
// ranks every tree, and SQE_C's three rankings are spliced at ranks 5
// and 200. The context's deadline or cancellation aborts retrieval
// mid-evaluation (including inside every shard's loop on a sharded
// engine).
//
// With degradation on (WithDegradation) an expansion that fails is
// replaced by the plain unexpanded query, each SQE_C run on its own,
// and retrieve merges the surviving shards; Degraded reports both.
func (e *Engine) Do(ctx context.Context, req SearchRequest) (*SearchResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if e.live != nil && req.PRF != nil {
		// PRF reads the feedback documents' vectors from the engine's
		// index, which on a live engine is an empty placeholder —
		// feedback would silently come from no documents.
		return nil, errors.New("sqe: PRF is not supported on a live (segmented) engine")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var ps *PipelineStats
	if req.CollectStats {
		ps = &PipelineStats{}
	}
	var deg *Degradation
	if e.degrade != nil {
		deg = &Degradation{}
	}
	resp := &SearchResponse{}
	// The user's query is analysed once: it is the baseline's tree, and
	// every expanded tree (and fallback) of the request shares it.
	start := time.Now()
	user := e.expander.QLQuery(req.Query)
	if ps != nil {
		ps.Stages.QueryBuild += time.Since(start)
	}
	var trees []search.Node
	if req.Baseline {
		trees = []search.Node{user}
	} else {
		nodes, err := e.linkEntities(ctx, req.Query, req.EntityTitles, ps)
		if err != nil {
			return nil, err
		}
		sets := sqecSets[:]
		if req.MotifSet != 0 {
			sets = []MotifSet{req.MotifSet}
		}
		trees = make([]search.Node, len(sets))
		for i, set := range sets {
			qg, err := e.expand(ctx, nodes, set, ps, deg)
			switch {
			case err == nil:
				trees[i] = e.expander.BuildQueryStats(user, qg, ps)
				if len(sets) == 1 || set == MotifTS {
					resp.Expansion = e.expansionOf(qg)
				}
			case deg != nil && ctx.Err() == nil:
				// A cancelled parent context is the caller's signal and
				// is never degraded into a fallback.
				deg.ExpansionFallbacks++
				trees[i] = user
			default:
				return nil, err
			}
		}
	}
	if req.PRF != nil {
		// The feedback pass is a small fixed-depth strict retrieval on the
		// engine's retrieval path; it contributes to query construction,
		// not to the final retrieval's timing.
		start := time.Now()
		var err error
		trees[0], err = prf.Reformulate(ctx, e.dist, e.ix, trees[0], *req.PRF)
		if ps != nil {
			ps.Stages.QueryBuild += time.Since(start)
		}
		if err != nil {
			return nil, err
		}
	}
	// An SQE_C page that ends by the second cut takes S only where T&S
	// ranks fewer than K documents, so S is a backfill tree (DESIGN.md
	// §11).
	sqec := len(trees) == len(sqecSets)
	lists, dropped, err := e.retrieve(ctx, trees, req.K, sqec && req.K <= core.DefaultSpliceCuts[1], ps, deg)
	if err != nil {
		return nil, err
	}
	resp.Results = lists[0]
	if sqec {
		resp.Results = core.SpliceResultsC(req.K, lists[0], lists[1], lists[2])
		if dropped && len(resp.Results) < req.K {
			// T&S ranked K documents, but some of them share a name, so
			// the page is short and S had a place on it after all. The
			// page comes from the second evaluation, so only its dropped
			// shards are reported; both evaluations' retries count.
			if deg != nil {
				deg.DroppedShards, deg.ShardErrors = deg.DroppedShards[:0], deg.ShardErrors[:0]
			}
			if lists, _, err = e.retrieve(ctx, trees, req.K, false, ps, deg); err != nil {
				return nil, err
			}
			resp.Results = core.SpliceResultsC(req.K, lists[0], lists[1], lists[2])
		}
	}
	if ps != nil {
		ps.Queries++
		resp.Stats = ps
	}
	if deg != nil && !deg.empty() {
		resp.Degraded = deg
	}
	return resp, nil
}

// linkEntities resolves a request's entities, timed into the entity-link
// stage when ps is non-nil, and checks the context before any expansion
// starts.
func (e *Engine) linkEntities(ctx context.Context, query string, entityTitles []string, ps *PipelineStats) ([]NodeID, error) {
	start := time.Now()
	nodes, err := e.resolveEntities(query, entityTitles)
	if ps != nil {
		ps.Stages.EntityLink += time.Since(start)
	}
	if err != nil {
		return nil, err
	}
	return nodes, ctx.Err()
}

// sqecSets is the run order of the SQE_C combination: triangular alone,
// both motifs, square alone — the splice in core.SpliceResultsC keys off
// this order.
var sqecSets = [3]MotifSet{MotifT, MotifTS, MotifS}

// expansionOf converts the expander's query graph into the public
// Expansion shape.
func (e *Engine) expansionOf(qg core.QueryGraph) *Expansion {
	exp := &Expansion{QueryNodes: qg.QueryNodes}
	if len(qg.QueryNodes) > 0 {
		exp.QueryNodeTitles = make([]string, len(qg.QueryNodes))
	}
	for i, n := range qg.QueryNodes {
		exp.QueryNodeTitles[i] = e.graph.Title(n)
	}
	if len(qg.Features) > 0 {
		exp.Features = make([]Feature, len(qg.Features))
	}
	for i, f := range qg.Features {
		exp.Features[i] = Feature{
			Article: f.Article,
			Title:   e.graph.Title(f.Article),
			Weight:  f.Weight,
		}
	}
	return exp
}

// retrieve evaluates a request's trees — one, or SQE_C's three — in one
// Evaluate and returns one ranking per tree, in order, each
// bit-identical to evaluating that tree alone on a monolithic index
// (DESIGN.md §9.2). Every engine kind takes this path: a single index
// is a coordinator over one partition. With backfill the last tree is
// search.EvalOptions.Backfill's, and dropped reports that its ranking
// is nil. The pass is timed
// and counted into ps when non-nil (per-partition rows included). With
// degradation enabled (deg non-nil) every partition call runs with a
// deadline, panic containment and transient retries, and a failed
// partition is dropped from every tree's merge; there is no per-tree
// partial result.
func (e *Engine) retrieve(ctx context.Context, nodes []search.Node, k int, backfill bool, ps *PipelineStats, deg *Degradation) (_ [][]Result, dropped bool, err error) {
	opts := search.EvalOptions{CollectStats: ps != nil, Backfill: backfill}
	if deg != nil {
		opts.Degrade = e.degrade
	}
	start := time.Now()
	ev, err := e.dist.Evaluate(ctx, nodes, k, opts)
	if deg != nil {
		deg.DroppedShards = append(deg.DroppedShards, ev.Partial.DroppedShards...)
		deg.ShardErrors = append(deg.ShardErrors, ev.Partial.ShardErrors...)
		deg.Retries += ev.Partial.Retries
	}
	if ps != nil {
		ps.Stages.Retrieval += time.Since(start)
		ps.Search.Add(ev.Stats)
		ps.Retrievals++
	}
	if err != nil {
		return nil, false, err
	}
	return ev.Results, ev.BackfillDropped, nil
}
