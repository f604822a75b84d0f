package search

import (
	"context"

	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/rpc"
)

// partition is one slice of a corpus as the coordinator sees it: a
// whole index, a shard of an index.Sharded, a segment of a pinned
// index.Snapshot, or a shard server behind an rpc.Group. The coordinator
// (scatterGather) owns everything that must agree across slices — the
// statistics sums, the degradation policy, panic containment, the merge
// — so an implementation only answers for its own documents. DESIGN.md
// §9.1 states the contract and why it makes the merged ranking
// bit-identical to a monolithic evaluation.
//
// Both calls carry every tree of the request and keep their state in
// pc, which the coordinator holds from one phase to the next.
type partition interface {
	// stats flattens each tree of qs against the partition and reports
	// every leaf's local collection frequency over its live documents
	// into pc.leaves, the trees' leaves back to back in
	// flatten order and tree t's ending at pc.ends[t], keeping in pc
	// what eval reuses (the flattened leaves in process, the encoded
	// trees on the wire). A local partition counts its positional-memo
	// hits and misses into st when non-nil.
	stats(ctx context.Context, qs []Node, pc *partCall, st *SearchStats) error
	// eval scores the partition's documents under the global statistics
	// in req and sets pc.res[t] to tree t's top req.K in (score desc,
	// DocID asc) order, already carrying global DocIDs. Evaluator
	// counters accumulate into st when non-nil.
	eval(ctx context.Context, req *EvalRequest, pc *partCall, st *SearchStats) error
	// totalTokens returns the partition's live token count.
	totalTokens() int64
	// retryable reports whether err is a transient failure worth
	// re-running the call for.
	retryable(err error) bool
}

// localPartition evaluates an index in this process: a whole index
// (Searcher), a round-robin shard, a live segment (segment seg of the
// pinned snapshot sn), or — inside ShardService — the slice a shard
// server holds.
//
// A tombstoned segment is flattened and evaluated exactly like any
// other: its postings, bounds and block metadata still cover the dead
// documents, which keeps every pruning bound dominating. Tombstones
// enter in exactly two places, both owned by the snapshot: stats takes
// the segment's memoised correction off each leaf's cf, and eval
// hands the evaluator the dead-document set, which it consults before
// offering a candidate to the heap — so a tombstoned partition is
// evaluated with the request's own K.
type localPartition struct {
	ix *index.Index
	// global maps a local DocID to the global one; nil is the identity.
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

// stats flattens every tree into pc, where eval finds the leaves, each
// distinct phrase or window node resolved once across the trees, and
// corrects each leaf's statistics for the tombstones. Like score, it
// fails with the corruption the index has recorded (index.ErrCorrupt),
// before or during this call: a failed block reads as no postings.
func (p *localPartition) stats(ctx context.Context, qs []Node, pc *partCall, st *SearchStats) error {
	sc := getScratch()
	defer putScratch(sc)
	leaves, ends := pc.flat[:0], pc.ends[:0]
	if len(qs) > 1 && sc.flat.resolved == nil {
		sc.flat.resolved = make(map[positionalNode]int)
	}
	for _, q := range qs {
		flatten(p.ix, q, 1, &leaves, &sc.flat, st)
		ends = append(ends, len(leaves))
	}
	pc.flat, pc.ends = leaves, ends
	if p.sn != nil && len(p.sn.Tombstones(p.seg)) > 0 {
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
			if st != nil {
				st.correctionProbes += int64(c.Probes)
			}
		}
	}
	pc.leaves = grow(pc.leaves, len(leaves))
	for i := range leaves {
		pc.leaves[i] = LeafStats{CF: leaves[i].cf}
	}
	return p.ix.Err()
}

// eval is score behind the in-process fault hook.
func (p *localPartition) eval(ctx context.Context, req *EvalRequest, pc *partCall, st *SearchStats) error {
	if err := fault.Check(fault.ShardEval); err != nil {
		return err
	}
	return p.score(ctx, req, pc, st)
}

// score overrides stats' flattened leaves with req's global statistics
// and evaluates every tree as one run of the top-k loop, reporting on pc
// whether the loop dropped a backfill tree. It rewrites
// only the fields the override owns, so a retry over the same leaves is
// safe.
func (p *localPartition) score(ctx context.Context, req *EvalRequest, pc *partCall, st *SearchStats) error {
	cfg := p.override(pc.flat, req)
	pc.res = grow(pc.res, len(pc.ends))
	sc := getScratch()
	defer putScratch(sc)
	buf, dropped, err := searchRuns(ctx, p.ix, p.dead(), pc.flat, pc.ends, req.K, cfg, st, sc, pc.res, pc.buf[:0])
	pc.buf, pc.dropped = buf, dropped
	if err == nil {
		err = p.ix.Err()
	}
	if err != nil || p.global == nil {
		return err
	}
	for i := range buf {
		buf[i].Doc = p.global(buf[i].Doc)
	}
	return nil
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
		leaves[i].cf, leaves[i].collProb = o.CF, o.CollProb
	}
	return scoring{
		mu:             req.Mu,
		disablePruning: req.DisablePruning,
		forcePrune:     req.forcePrune,
		backfill:       req.backfill,
	}
}

func (p *localPartition) totalTokens() int64 {
	if p.sn != nil {
		return p.sn.SegmentLiveTokens(p.seg)
	}
	return p.ix.TotalTokens()
}

func (p *localPartition) retryable(err error) bool { return fault.IsTransient(err) }

// remotePartition is a shard server behind a replica group, speaking
// the shard.stats / shard.eval frames of service.go, one tree a frame.
// The server is stateless between the two calls and re-flattens in
// eval; pc keeps each tree's encoding, which its eval frame repeats
// as-is.
type remotePartition struct {
	group *rpc.Group
	info  InfoResponse
}

func (p *remotePartition) stats(ctx context.Context, qs []Node, pc *partCall, _ *SearchStats) error {
	pc.leaves, pc.ends, pc.trees = pc.leaves[:0], pc.ends[:0], pc.trees[:0]
	for _, q := range qs {
		tree, err := appendNode(nil, q, 1)
		if err != nil {
			return err
		}
		var out StatsResponse
		if err := p.group.Call(ctx, MethodStats, encodedTree(tree), &out); err != nil {
			return err
		}
		pc.leaves = append(pc.leaves, out.Leaves...)
		pc.ends = append(pc.ends, len(pc.leaves))
		pc.trees = append(pc.trees, tree)
	}
	return nil
}

// eval sends one eval frame per tree with the tree's slice of the
// overrides; a tree that flattened to nothing has nothing to score.
func (p *remotePartition) eval(ctx context.Context, req *EvalRequest, pc *partCall, st *SearchStats) error {
	pc.res = grow(pc.res, len(pc.ends))
	lo := 0
	for t, hi := range pc.ends {
		pc.res[t] = nil
		if hi == lo {
			continue
		}
		sub := *req
		sub.Overrides = req.Overrides[lo:hi]
		lo = hi
		var resp EvalResponse
		if err := p.group.Call(ctx, MethodEval, evalBody{tree: pc.trees[t], req: &sub}, &resp); err != nil {
			return err
		}
		res := make([]Result, len(resp.Results))
		for i, wr := range resp.Results {
			res[i] = Result{Doc: index.DocID(wr.Doc), Name: wr.Name, Score: wr.Score}
		}
		pc.res[t] = res
		if st != nil && resp.Stats != nil {
			st.Add(resp.Stats.searchStats())
		}
	}
	return nil
}

func (p *remotePartition) totalTokens() int64 { return p.info.TotalToks }

func (p *remotePartition) retryable(err error) bool { return rpc.IsTransport(err) }
