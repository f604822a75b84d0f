package sqe

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
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
	// Baseline — the SQE_C combination has no PRF variant in the paper.
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
		return errors.New("sqe: PRF requires an explicit MotifSet or Baseline (SQE_C has no PRF variant)")
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
	// for requests whose expansion was degraded to the unexpanded
	// query (see Degraded.ExpansionFallbacks), or whose T&S run was
	// dropped from an SQE_C splice.
	Expansion *Expansion
	// Degraded reports what graceful degradation did to this request:
	// dropped shards or SQE_C runs, expansion fallbacks, transient-
	// fault retries. Nil when nothing happened — always nil on engines
	// built without WithDegradation.
	Degraded *Degradation
}

// Do runs one retrieval through the SQE pipeline; it is the retrieval
// entry point. The context's deadline or cancellation aborts retrieval
// mid-evaluation (including inside every shard's loop on a sharded
// engine).
func (e *Engine) Do(ctx context.Context, req SearchRequest) (*SearchResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if e.live != nil && req.PRF != nil {
		// PRF reformulates against the engine's unsharded searcher, which
		// on a live engine wraps an empty placeholder index — feedback
		// would silently come from no documents.
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
	var err error
	switch {
	case req.Baseline:
		resp.Results, err = e.doBaseline(ctx, req.Query, req.K, req.PRF, ps, deg)
	case req.MotifSet == 0:
		resp.Results, resp.Expansion, err = e.doC(ctx, req.Query, req.EntityTitles, req.K, ps, deg)
	default:
		resp.Results, resp.Expansion, err = e.doSet(ctx, req.MotifSet, req.Query, req.EntityTitles, req.K, req.PRF, ps, deg)
	}
	if err != nil {
		return nil, err
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

// doSet runs one motif configuration end to end: entity resolution,
// (cached) motif expansion, three-part query construction, optional PRF
// reformulation, retrieval. Stage timings and evaluator counters
// accumulate into ps when non-nil; degradation events accumulate into
// deg when non-nil (see Engine.buildQuery and Engine.retrieve).
func (e *Engine) doSet(ctx context.Context, set MotifSet, query string, entityTitles []string, k int, prfCfg *PRFConfig, ps *PipelineStats, deg *Degradation) ([]Result, *Expansion, error) {
	nodes, err := e.linkEntities(ctx, query, entityTitles, ps)
	if err != nil {
		return nil, nil, err
	}
	node, exp, err := e.buildQuery(ctx, query, nodes, set, ps, deg)
	if err != nil {
		return nil, nil, err
	}
	if prfCfg != nil {
		// The feedback pass is a small fixed-depth retrieval over the
		// unsharded searcher; it contributes to query construction, not
		// to the final retrieval's timing.
		start := time.Now()
		node, err = prf.Reformulate(ctx, e.searcher, node, *prfCfg)
		if ps != nil {
			ps.Stages.QueryBuild += time.Since(start)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	lists, err := e.retrieve(ctx, []search.Node{node}, k, ps, deg)
	if err != nil {
		return nil, nil, err
	}
	return lists[0], exp, nil
}

// linkEntities resolves a request's entities, timed into the entity-link
// stage, and checks the context before any expansion starts.
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

// sqecRunNames are the paper's names for SQE_C's runs, in splice order;
// Degradation.DroppedRuns uses them.
var sqecRunNames = [3]string{"T", "TS", "S"}

// sqecSets is the run order of the SQE_C combination: triangular alone,
// both motifs, square alone — the splice in core.SpliceResultsC keys off
// this order.
var sqecSets = [3]MotifSet{MotifT, MotifTS, MotifS}

// doC runs the paper's SQE_C combination: the T, T&S and S runs spliced
// at ranks 5 and 200. The entities are resolved once for all three
// runs; each run then expands and builds its own tree, and retrieve
// evaluates the trees together. The returned Expansion is the combined
// (T&S) run's.
//
// With degradation enabled each run's expansion and query build is
// guarded (the engine.sqec_run fault point, panic containment, transient
// retry), and under PartialSQEC a run that fails there is dropped before
// the evaluation: the survivors still cover their rank bands, and
// Degradation.DroppedRuns names the missing lists. All three failing
// fails the request with the first run's error. The evaluation is one
// event for the whole request (see retrieve), never a reason to drop
// a run.
func (e *Engine) doC(ctx context.Context, query string, entityTitles []string, k int, ps *PipelineStats, deg *Degradation) ([]Result, *Expansion, error) {
	nodes, err := e.linkEntities(ctx, query, entityTitles, ps)
	if err != nil {
		return nil, nil, err
	}
	partial := deg != nil && e.degrade.PartialSQEC
	var exps [3]*Expansion
	var built []int // the runs behind trees, in run order
	var trees []search.Node
	var firstErr error
	for i, set := range sqecSets {
		var node search.Node
		err := e.guarded(ctx, deg, func() (err error) {
			if deg != nil {
				if err = fault.Check(fault.SQECRun); err != nil {
					return err
				}
			}
			node, exps[i], err = e.buildQuery(ctx, query, nodes, set, ps, deg)
			return err
		})
		if err != nil {
			// A cancelled parent context is the caller's signal and is
			// never degraded into a partial splice.
			if !partial || ctx.Err() != nil {
				return nil, nil, err
			}
			if firstErr == nil {
				firstErr = err
			}
			exps[i] = nil
			deg.DroppedRuns = append(deg.DroppedRuns, sqecRunNames[i])
			continue
		}
		built = append(built, i)
		trees = append(trees, node)
	}
	if len(trees) == 0 {
		return nil, nil, firstErr
	}
	lists, err := e.retrieve(ctx, trees, k, ps, deg)
	if err != nil {
		return nil, nil, err
	}
	var runs [3][]Result
	for j, i := range built {
		runs[i] = lists[j]
	}
	return core.SpliceResultsC(k, runs[0], runs[1], runs[2]), exps[1], nil
}

// doBaseline runs the plain query-likelihood baseline (QL_Q), optionally
// with PRF on top.
func (e *Engine) doBaseline(ctx context.Context, query string, k int, prfCfg *PRFConfig, ps *PipelineStats, deg *Degradation) ([]Result, error) {
	start := time.Now()
	node := e.expander.QLQuery(query)
	var err error
	if prfCfg != nil {
		node, err = prf.Reformulate(ctx, e.searcher, node, *prfCfg)
	}
	if ps != nil {
		ps.Stages.QueryBuild += time.Since(start)
	}
	if err != nil {
		return nil, err
	}
	lists, err := e.retrieve(ctx, []search.Node{node}, k, ps, deg)
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// expansionOf converts the expander's query graph into the public
// Expansion shape.
func (e *Engine) expansionOf(qg core.QueryGraph) *Expansion {
	exp := &Expansion{QueryNodes: qg.QueryNodes}
	for _, n := range qg.QueryNodes {
		exp.QueryNodeTitles = append(exp.QueryNodeTitles, e.graph.Title(n))
	}
	for _, f := range qg.Features {
		exp.Features = append(exp.Features, Feature{
			Article: f.Article,
			Title:   e.graph.Title(f.Article),
			Weight:  f.Weight,
		})
	}
	return exp
}

// retrieve evaluates a request's trees — one, or SQE_C's three — in one
// Evaluate and returns one ranking per tree, in order, each
// bit-identical to evaluating that tree alone on a monolithic index
// (DESIGN.md "SQE_C in one pass"). Every engine kind takes this path: a
// single index is a coordinator over one partition. The pass is timed
// and counted into ps when non-nil (per-partition rows included). With
// degradation enabled (deg non-nil) every partition call runs with a
// deadline, panic containment and transient retries, and — under
// PartialShards — a failed partition is dropped from every tree's
// merge; there is no per-tree partial result.
func (e *Engine) retrieve(ctx context.Context, nodes []search.Node, k int, ps *PipelineStats, deg *Degradation) ([][]Result, error) {
	opts := search.EvalOptions{CollectStats: ps != nil}
	if deg != nil {
		p := e.degrade
		opts.Degrade = &search.DegradeOptions{AllowPartial: p.PartialShards, ShardDeadline: p.ShardDeadline,
			MaxRetries: p.MaxRetries, RetryBackoff: p.RetryBackoff}
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
		return nil, err
	}
	return ev.Results, nil
}
