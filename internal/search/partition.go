package search

import (
	"context"
	"runtime/debug"

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
// shard, a live segment (tombs lists its deleted documents, ascending),
// or — inside ShardService — the slice a shard server holds.
//
// A tombstoned segment is evaluated as-is: its postings, bounds and
// block metadata still cover the dead documents, which keeps every
// pruning bound dominating. Tombstones enter in exactly two places.
// stats subtracts each dead document's contribution from cf and df (and
// flattens with streaming off, so there is always a postings row to
// subtract from); eval asks for the top K+|tombs| — dead documents can
// displace at most |tombs| live ones — and filters them out before
// remapping survivors to global DocIDs.
type localPartition struct {
	ix     *index.Index
	tombs  []index.DocID
	global func(local index.DocID) index.DocID
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
			tombs:  sn.Tombstones(i),
			global: func(d index.DocID) index.DocID { return sn.GlobalDoc(i, d) },
		}
	}
	return parts
}

// flatten flattens q against the partition's index and corrects each
// leaf's statistics for the tombstones.
func (p *localPartition) flatten(q Node, st *SearchStats) []leaf {
	local := Searcher{ix: p.ix, DisableStreaming: len(p.tombs) > 0}
	sc := getScratch()
	defer putScratch(sc)
	var leaves []leaf
	local.flatten(q, 1, &leaves, &sc.positional, st)
	for li := range leaves {
		l := &leaves[li]
		for _, d := range p.tombs {
			if pos := findDoc(l.postings.Docs, d); pos >= 0 {
				l.cf -= int64(l.postings.Freqs[pos])
				l.df--
			}
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
	for i := range leaves {
		o := req.Overrides[i]
		leaves[i].cf, leaves[i].df, leaves[i].collProb = o.CF, o.DF, o.CollProb
	}
	// The same expression every collection view's AvgDocLen evaluates.
	var avgDocLen float64
	if req.NumDocs > 0 {
		avgDocLen = float64(req.TotalToks) / float64(req.NumDocs)
	}
	cfg := scoring{
		model:          Model(req.Model),
		params:         ModelParams{Mu: req.Mu, Lambda: req.Lambda, K1: req.K1, B: req.B},
		cs:             collStats{numDocs: float64(req.NumDocs), avgDocLen: avgDocLen},
		disablePruning: req.DisablePruning,
		forcePrune:     req.forcePrune,
	}
	sc := getScratch()
	defer putScratch(sc)
	res, err := evalLeaves(ctx, p.ix, leaves, req.K+len(p.tombs), cfg, st, sc)
	if err != nil {
		return nil, err
	}
	live := res[:0]
	for _, r := range res {
		if len(p.tombs) > 0 && findDoc(p.tombs, r.Doc) >= 0 {
			continue
		}
		r.Doc = p.global(r.Doc)
		live = append(live, r)
	}
	if len(live) > req.K {
		live = live[:req.K]
	}
	return live, nil
}

func (p *localPartition) totals() (int, int64) {
	numDocs, totalToks := p.ix.NumDocs()-len(p.tombs), p.ix.TotalTokens()
	for _, d := range p.tombs {
		totalToks -= int64(p.ix.DocLen(d))
	}
	return numDocs, totalToks
}

func (p *localPartition) retryable(err error) bool { return fault.IsTransient(err) }

// remotePartition is a shard server behind a replica group, speaking
// the shard.stats / shard.eval frames of service.go. The server is
// stateless between the two calls and re-flattens in eval; the handle
// only saves re-encoding the tree.
type remotePartition struct {
	group *rpc.Group
	info  InfoResponse
}

func (p *remotePartition) stats(ctx context.Context, q Node, _ *SearchStats) ([]LeafStats, any, error) {
	wq, err := EncodeNode(q)
	if err != nil {
		return nil, nil, err
	}
	out, err := p.group.Call(ctx, MethodStats, StatsRequest{Query: wq}, func() any { return &StatsResponse{} })
	if err != nil {
		return nil, nil, err
	}
	return out.(*StatsResponse).Leaves, wq, nil
}

func (p *remotePartition) eval(ctx context.Context, prepared any, req *EvalRequest, st *SearchStats) ([]Result, error) {
	wire := *req
	wire.Query = prepared.(WireNode)
	out, err := p.group.Call(ctx, MethodEval, wire, func() any { return &EvalResponse{} })
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
