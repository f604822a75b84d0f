package search

import (
	"context"
	"runtime/debug"
	"slices"

	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/rpc"
)

// partition is one slice of a corpus as the coordinator sees it: a
// shard of an index.Sharded, a segment of a pinned index.Snapshot, or a
// shard server behind an rpc.Group. The coordinator (scatterGather)
// owns everything that must agree across slices — the statistics sums,
// the degradation policy, the merge — so an implementation only answers
// for its own documents. DESIGN.md "Partitioned evaluation" states the
// contract and why it makes the merged ranking bit-identical to a
// monolithic evaluation.
type partition interface {
	// stats flattens q against the partition and reports each leaf's
	// local collection and document frequency over its live documents,
	// in flatten order, plus an opaque handle that lets eval reuse the
	// work (the flattened leaves in process, the encoded tree on the
	// wire). A local partition counts its positional-memo hits and
	// misses into st when non-nil.
	stats(ctx context.Context, q Node, st *SearchStats) (leaves []LeafStats, prepared any, err error)
	// eval scores the partition's documents under the global statistics
	// in req and returns its top req.K in (score desc, DocID asc) order,
	// already carrying global DocIDs. Evaluator counters accumulate into
	// st when non-nil.
	eval(ctx context.Context, prepared any, req *EvalRequest, st *SearchStats) ([]Result, error)
	// totals returns the partition's live document and token counts.
	totals() (numDocs int, totalToks int64)
	// retryable reports whether err is a transient failure worth
	// re-running the call for.
	retryable(err error) bool
}

// localPartition evaluates an index in this process: a round-robin
// shard, a live segment (segment seg of the pinned snapshot sn), or —
// inside ShardService — the slice a shard server holds.
//
// A tombstoned segment is flattened and evaluated exactly like any
// other: its postings, bounds and block metadata still cover the dead
// documents, which keeps every pruning bound dominating. Tombstones
// enter in exactly two places, both owned by the snapshot: stats takes
// the segment's memoised correction off each leaf's cf and df, and eval
// hands the evaluator the dead-document set, which it consults before
// offering a candidate to the heap — so a tombstoned partition is
// evaluated with the request's own K.
type localPartition struct {
	ix     *index.Index
	global func(local index.DocID) index.DocID
	// sn is nil unless the partition is a live segment.
	sn  *index.Snapshot
	seg int
}

// shardPartitions views an index.Sharded as one partition per shard.
func shardPartitions(sh *index.Sharded) []partition {
	parts := make([]partition, sh.NumShards())
	for i := range parts {
		parts[i] = &localPartition{
			ix:     sh.Shard(i),
			global: func(d index.DocID) index.DocID { return sh.GlobalDoc(i, d) },
		}
	}
	return parts
}

// snapshotPartitions views a pinned snapshot as one partition per live
// segment. The caller owns sn's pin for as long as the partitions are
// in use.
func snapshotPartitions(sn *index.Snapshot) []partition {
	parts := make([]partition, sn.NumSegments())
	for i := range parts {
		parts[i] = &localPartition{
			ix:     sn.Segment(i),
			global: func(d index.DocID) index.DocID { return sn.GlobalDoc(i, d) },
			sn:     sn,
			seg:    i,
		}
	}
	return parts
}

// flatten flattens q against the partition's index and corrects each
// leaf's statistics for the tombstones.
func (p *localPartition) flatten(q Node, st *SearchStats) []leaf {
	local := Searcher{ix: p.ix}
	sc := getScratch()
	defer putScratch(sc)
	// Flattened into the scratch, then copied out at size: the leaves
	// outlive this call (they are the prepared handle eval reuses).
	sc.leaves = sc.leaves[:0]
	local.flatten(q, 1, &sc.leaves, &sc.positional, st)
	leaves := slices.Clone(sc.leaves)
	if p.sn == nil || len(p.sn.Tombstones(p.seg)) == 0 {
		return leaves
	}
	for li := range leaves {
		l := &leaves[li]
		var c index.Correction
		switch {
		case l.positional != nil:
			c = p.sn.PositionalCorrection(p.seg, l.positional)
		case l.termID >= 0:
			c = p.sn.TermCorrection(p.seg, l.termID)
		}
		l.cf -= c.CF
		l.df -= float64(c.DF)
		if st != nil {
			st.correctionProbes += int64(c.Probes)
		}
	}
	return leaves
}

func (p *localPartition) stats(ctx context.Context, q Node, st *SearchStats) ([]LeafStats, any, error) {
	leaves := p.flatten(q, st)
	out := make([]LeafStats, len(leaves))
	for i := range leaves {
		out[i] = LeafStats{CF: leaves[i].cf, DF: leaves[i].df}
	}
	return out, leaves, nil
}

// eval is score behind the in-process fault hook and panic containment.
// Partition evaluations run on fan-out goroutines, where an uncaught
// panic — injected or genuine — would kill the process before any
// engine-level recovery could run, so the recover is unconditional.
func (p *localPartition) eval(ctx context.Context, prepared any, req *EvalRequest, st *SearchStats) (res []Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fault.AsPanicError(v, debug.Stack())
		}
	}()
	if err := fault.Check(fault.ShardEval); err != nil {
		return nil, err
	}
	return p.score(ctx, prepared.([]leaf), req, st)
}

// score overrides the flattened leaves with req's global statistics and
// evaluates them. It rewrites only the fields the override owns, so a
// retry over the same leaves is safe.
func (p *localPartition) score(ctx context.Context, leaves []leaf, req *EvalRequest, st *SearchStats) ([]Result, error) {
	cfg := p.override(leaves, req)
	sc := getScratch()
	defer putScratch(sc)
	res, err := evalLeaves(ctx, p.ix, p.dead(), leaves, req.K, cfg, st, sc)
	if err != nil {
		return nil, err
	}
	for i := range res {
		res[i].Doc = p.global(res[i].Doc)
	}
	return res, nil
}

// dead returns the partition's deleted documents; nil unless it is a
// tombstoned live segment.
func (p *localPartition) dead() index.DocSet {
	if p.sn == nil {
		return nil
	}
	return p.sn.Dead(p.seg)
}

// override writes req's global statistics over the leaves' local ones
// and returns the scoring configuration req asks for.
func (p *localPartition) override(leaves []leaf, req *EvalRequest) scoring {
	for i := range leaves {
		o := req.Overrides[i]
		leaves[i].cf, leaves[i].df, leaves[i].collProb = o.CF, o.DF, o.CollProb
	}
	// The same expression every collection view's AvgDocLen evaluates.
	var avgDocLen float64
	if req.NumDocs > 0 {
		avgDocLen = float64(req.TotalToks) / float64(req.NumDocs)
	}
	return scoring{
		model:          Model(req.Model),
		params:         ModelParams{Mu: req.Mu, Lambda: req.Lambda, K1: req.K1, B: req.B},
		cs:             collStats{numDocs: float64(req.NumDocs), avgDocLen: avgDocLen},
		disablePruning: req.DisablePruning,
		forcePrune:     req.forcePrune,
	}
}

func (p *localPartition) totals() (int, int64) {
	if p.sn != nil {
		return p.sn.SegmentLiveDocs(p.seg), p.sn.SegmentLiveTokens(p.seg)
	}
	return p.ix.NumDocs(), p.ix.TotalTokens()
}

func (p *localPartition) retryable(err error) bool { return fault.IsTransient(err) }

// remotePartition is a shard server behind a replica group, speaking
// the shard.stats / shard.eval frames of service.go. The server is
// stateless between the two calls and re-flattens in eval; the handle
// is the tree's encoding, which the eval frame repeats as-is.
type remotePartition struct {
	group *rpc.Group
	info  InfoResponse
}

func (p *remotePartition) stats(ctx context.Context, q Node, _ *SearchStats) ([]LeafStats, any, error) {
	tree, err := appendNode(nil, q, 1)
	if err != nil {
		return nil, nil, err
	}
	out, err := p.group.Call(ctx, MethodStats, encodedTree(tree), func() any { return &StatsResponse{} })
	if err != nil {
		return nil, nil, err
	}
	return out.(*StatsResponse).Leaves, encodedTree(tree), nil
}

func (p *remotePartition) eval(ctx context.Context, prepared any, req *EvalRequest, st *SearchStats) ([]Result, error) {
	out, err := p.group.Call(ctx, MethodEval, evalBody{tree: prepared.(encodedTree), req: req}, func() any { return &EvalResponse{} })
	if err != nil {
		return nil, err
	}
	resp := out.(*EvalResponse)
	res := make([]Result, len(resp.Results))
	for i, wr := range resp.Results {
		res[i] = Result{Doc: index.DocID(wr.Doc), Name: wr.Name, Score: wr.Score}
	}
	if st != nil && resp.Stats != nil {
		st.Add(resp.Stats.searchStats())
	}
	return res, nil
}

func (p *remotePartition) totals() (int, int64) { return p.info.NumDocs, p.info.TotalToks }

func (p *remotePartition) retryable(err error) bool { return rpc.IsTransport(err) }
