package search

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/index"
)

// ShardConfig is the retrieval configuration of a searcher. An Engine
// mirrors its own onto its searcher at construction (the engine owns
// the knobs; the searcher applies them). The fields are read on every
// call and must not be mutated concurrently with searches.
type ShardConfig struct {
	// Mu is the Dirichlet smoothing pseudo-count μ; a non-positive
	// value means DefaultMu.
	Mu float64
	// DisablePruning turns off MaxScore pruning in every partition's
	// evaluator and scores every candidate. Pruning is score-safe —
	// rankings and scores are bit-identical either way (maxscore.go) —
	// so the switch exists for debugging, for the full-evaluation side
	// of benchmarks, and for tests that assert exhaustive-path counters.
	// With pruning on, each partition prunes against its own top-k
	// threshold — shared-nothing — which is safe because every partition
	// must surface its local top k for the merge regardless of what the
	// others hold.
	DisablePruning bool
	// Sem, when non-nil, bounds how many partition calls run on extra
	// goroutines (the engine's worker pool, sized by WithSQECWorkers). The
	// fan-out only try-acquires: when the pool is saturated the call
	// runs inline on the caller's goroutine, so a caller that already
	// holds a slot can always finish — sharing the semaphore cannot
	// deadlock.
	Sem chan struct{}
}

// EvalOptions selects what one Evaluate call does beyond ranking.
type EvalOptions struct {
	// CollectStats fills Evaluation.Stats with the evaluator counters,
	// the wall-clock and one Shards row per partition.
	CollectStats bool
	// Degrade, when non-nil, applies per-partition deadlines, transient
	// retries and partial merges. Nil keeps the strict all-or-nothing
	// behaviour.
	Degrade *DegradeOptions
	// Backfill marks the last tree as wanted only while the tree before
	// it ranks fewer than k documents — SQE_S behind SQE_T&S in an SQE_C
	// splice whose page ends at or before the second cut. An in-process
	// partition stops evaluating the last tree once the tree before it
	// holds k of its documents; when a surviving partition did, the
	// merged ranking of the tree before has k entries, Results' last
	// entry is nil and Evaluation.BackfillDropped is set. A shard server
	// ranks every frame it receives. Ignored with fewer than two trees.
	Backfill bool
}

// Evaluation is the outcome of one Evaluate call.
type Evaluation struct {
	// Results holds one ranking per tree, in the trees' order: each
	// tree's global top k (score desc, DocID asc).
	Results [][]Result
	// Stats is zero unless EvalOptions.CollectStats was set.
	Stats SearchStats
	// Partial reports dropped partitions and retries; zero unless
	// EvalOptions.Degrade was set and something happened.
	Partial PartialInfo
	// BackfillDropped reports that EvalOptions.Backfill dropped the last
	// tree: its entry in Results is nil.
	BackfillDropped bool
}

// Distributed is the engine-facing contract of retrieval, satisfied by
// Searcher, ShardedSearcher, SegmentedSearcher and RemoteSharded —
// which are one coordinator over four kinds of partition (a whole
// index, a shard, a live segment, a shard server), so they return
// bit-identical rankings over the same documents.
type Distributed interface {
	// Configure applies the engine's retrieval configuration. Called
	// once at engine construction, before any searches.
	Configure(cfg ShardConfig)
	// Evaluate returns one global top k per tree of qs, in order —
	// SQE_C's three trees share one evaluation (DESIGN.md §9.2). A
	// partition is in or out for all of them: a failure is never one
	// tree's.
	//
	// Each ranking is ordered by descending score, ties broken on
	// ascending DocID, so results are deterministic. Only documents
	// that match at least one of the tree's leaves are ranked (standard
	// practice in LM retrieval engines: a document matching nothing
	// carries only background mass and sorts below every match of the
	// best leaf in all but degenerate cases). k <= 0 ranks nothing. ctx
	// is checked up front and every cancelCheckEvery candidates of the
	// top-k loop; once it is done the evaluation is abandoned with
	// ctx.Err().
	Evaluate(ctx context.Context, qs []Node, k int, opts EvalOptions) (Evaluation, error)
}

// coordinator is the scatter-gather evaluator every searcher embeds;
// its configuration fields are promoted onto them.
type coordinator struct {
	ShardConfig
	// forcePrune bypasses the cost model (pruneWorthwhile) and prunes a
	// run whenever pruning is enabled at all. Test-only: the differential
	// suites exercise pruning on corpora and queries the cost model
	// would (correctly) score exhaustively. It applies to in-process
	// partitions; it does not cross the wire.
	forcePrune bool
	// shards is what NumShards reports.
	shards int
	// pin returns the partitions one evaluation runs over, with a
	// release to call afterwards when they hold a pin (nil otherwise).
	pin func() (parts []partition, release func(), err error)
}

// fixed makes pin return the same partitions for every evaluation.
func fixed(parts ...partition) func() ([]partition, func(), error) {
	return func() ([]partition, func(), error) { return parts, nil, nil }
}

// NumShards returns the shard count S.
func (c *coordinator) NumShards() int { return c.shards }

// Configure implements Distributed.
func (c *coordinator) Configure(cfg ShardConfig) { c.ShardConfig = cfg }

// Evaluate implements Distributed: it pins the current partitions and
// runs the scatter-gather over them.
func (c *coordinator) Evaluate(ctx context.Context, qs []Node, k int, opts EvalOptions) (Evaluation, error) {
	out := make([][]Result, len(qs))
	ev, err := c.evaluateInto(ctx, qs, k, opts, out)
	if err == nil {
		ev.Results = out
	}
	return ev, err
}

// SearchWithStatsContext is a one-tree Evaluate with CollectStats,
// unpacked. It is kept only as the method value bench/sut.go binds on
// every searcher type; new code calls Evaluate.
func (c *coordinator) SearchWithStatsContext(ctx context.Context, q Node, k int) ([]Result, SearchStats, error) {
	var out [1][]Result
	ev, err := c.evaluateInto(ctx, []Node{q}, k, EvalOptions{CollectStats: true}, out[:])
	return out[0], ev.Stats, err
}

// evaluateInto is Evaluate into out, one slot per tree, leaving
// ev.Results unset: SearchWithStatsContext passes a slot on its stack.
func (c *coordinator) evaluateInto(ctx context.Context, qs []Node, k int, opts EvalOptions, out [][]Result) (ev Evaluation, err error) {
	if k <= 0 {
		return ev, nil
	}
	if err := ctx.Err(); err != nil {
		return ev, err
	}
	start := time.Now()
	parts, release, err := c.pin()
	if err != nil {
		return ev, err
	}
	if release != nil {
		defer release()
	}
	var st *SearchStats
	if opts.CollectStats {
		st = &ev.Stats
	}
	g := getGather(len(parts))
	defer g.put()
	// The trees are copied into the pooled state, which is what the
	// partitions see: a caller's one-tree slice stays on its stack.
	g.qs = append(g.qs[:0], qs...)
	g.ctx, g.parts, g.opts, g.wantStats, g.backfill = ctx, parts, opts.Degrade, st != nil, opts.Backfill && len(qs) > 1
	if ev.BackfillDropped, err = c.scatterGather(g, k, st, &ev.Partial, out); err != nil {
		clear(out)
		return ev, err
	}
	if st != nil {
		st.Elapsed = time.Since(start)
	}
	return ev, nil
}

// gather is the pooled state of one scatter-gather: its inputs, one call
// per partition, the request carrying the global statistics and the
// merge's read positions. Nothing returned to the caller aliases it.
type gather struct {
	ctx       context.Context
	qs        []Node
	parts     []partition
	opts      *DegradeOptions
	wantStats bool
	backfill  bool
	calls     []partCall
	req       EvalRequest
	heads     []int
	wg        sync.WaitGroup
}

var gatherPool = sync.Pool{New: func() any { return new(gather) }}

// getGather takes a gather with a call for each of n partitions (a shard
// handler's one).
func getGather(n int) *gather {
	g := gatherPool.Get().(*gather)
	g.calls = grow(g.calls, n)
	return g
}

// put returns g to the pool after dropping every reference that could
// pin a context, a tree, an index or an mmap region across requests.
func (g *gather) put() {
	clear(g.qs)
	g.ctx, g.qs, g.parts, g.opts = nil, g.qs[:0], nil, nil
	for i := range g.calls {
		g.calls[i].release()
	}
	gatherPool.Put(g)
}

// partStat returns partition i's counters when stats are wanted.
func (g *gather) partStat(i int) *SearchStats {
	if !g.wantStats {
		return nil
	}
	return &g.calls[i].st
}

// statsPhase is phase A on partition i: flatten and per-leaf statistics.
func (g *gather) statsPhase(i int) {
	pc, p := &g.calls[i], g.parts[i]
	pc.retries, pc.err = attempt(g.ctx, g.opts, p.retryable, func(ctx context.Context) error {
		return p.stats(ctx, g.qs, pc, g.partStat(i))
	})
}

// evalPhase is phase B on partition i, unless phase A took it out.
// Failed attempts leave their counters in the partition's stats, so a
// dropped partition still reports the work it did.
func (g *gather) evalPhase(i int) {
	pc, p := &g.calls[i], g.parts[i]
	pc.retries, pc.err, pc.dropped = 0, nil, false
	if pc.down != nil {
		return
	}
	start := time.Now()
	pc.retries, pc.err = attempt(g.ctx, g.opts, p.retryable, func(ctx context.Context) error {
		return p.eval(ctx, &g.req, pc, g.partStat(i))
	})
	pc.st.Elapsed = time.Since(start)
}

// partCall is one partition's state over one scatter-gather. It is
// pooled with the gather, so its buffers serve one evaluation after
// another; every field a phase reads is rewritten by the phase before.
type partCall struct {
	// leaves are phase A's per-leaf local statistics, every tree's back
	// to back, and ends[t] is where tree t's leaves end.
	leaves []LeafStats
	ends   []int
	// What phase B reuses of phase A: an in-process partition's
	// flattened leaves; a remote partition's encoded trees.
	flat  []leaf
	trees []encodedTree
	// res holds phase B's ranking of every tree; an in-process partition
	// backs them with buf. dropped: phase B dropped the backfill tree,
	// whose res entry is nil.
	res     [][]Result
	buf     []Result
	dropped bool
	// st collects the partition's counters over both phases: the
	// positional-memo lookups of its flatten, then its evaluator's.
	st SearchStats
	// err and retries are the current phase's outcome; down is the
	// failure that took the partition out (stats-tier ones labelled),
	// nil while it is in.
	err     error
	retries int
	down    error
}

// release drops the call's references into the index, the trees and
// the results and zeroes its outcome, keeping its backing arrays.
func (pc *partCall) release() {
	clear(pc.flat[:cap(pc.flat)])
	clear(pc.trees)
	clear(pc.res)
	clear(pc.buf[:cap(pc.buf)])
	pc.flat, pc.trees, pc.buf, pc.st, pc.err, pc.down, pc.dropped = pc.flat[:0], pc.trees[:0], pc.buf[:0], SearchStats{}, nil, nil, false
}

// scatterGather is the partitioned evaluation of g.qs into out, one
// ranking per tree; DESIGN.md §9.1 gives the exactness argument. Phase A gathers every tree's per-leaf statistics
// from every partition, the coordinator sums them into global
// overrides, phase B evaluates every partition under those overrides —
// all trees in one pass of the top-k loop — and, per tree, the bounded
// per-partition rankings merge by (score desc, DocID asc). dropped
// reports that a surviving partition dropped the backfill tree, which
// then has no ranking (EvalOptions.Backfill).
//
// Under a degradation policy a failing partition is taken out instead of
// failing the query, in two tiers: out in phase A, it never reported
// statistics and the survivors score against the surviving sub-corpus;
// out in phase B, the override already happened and the partial ranking
// is exactly the complete ranking minus its documents. Either way it is
// out for every tree. Parent-context cancellation is the caller's signal
// and is never degraded away, and a phase nothing survives returns its
// first error — an empty "partial" result would be indistinguishable
// from a query matching nothing.
func (c *coordinator) scatterGather(g *gather, k int, st *SearchStats, pi *PartialInfo, out [][]Result) (dropped bool, err error) {
	ctx, parts := g.ctx, g.parts
	n := len(parts)
	if n == 0 {
		return false, nil
	}
	strict := g.opts == nil
	calls := g.calls
	// However the search ends, pi lists what was taken out, ascending.
	defer func() {
		for i := range calls {
			if err := calls[i].down; err != nil {
				pi.DroppedShards = append(pi.DroppedShards, i)
				pi.ShardErrors = append(pi.ShardErrors, err.Error())
			}
		}
	}()
	// settle takes one phase's failures out, and returns the error that
	// ends the search, if any.
	settle := func(label string) error {
		var firstErr error
		survivors := 0
		for i := range calls {
			pi.Retries += calls[i].retries
		}
		for i := range calls {
			pc := &calls[i]
			if pc.down != nil {
				continue
			}
			if pc.err == nil {
				survivors++
				continue
			}
			if strict || ctx.Err() != nil {
				return pc.err
			}
			pc.down = fmt.Errorf("%s%w", label, pc.err)
			if firstErr == nil {
				firstErr = pc.err
			}
		}
		if survivors == 0 {
			return firstErr
		}
		return nil
	}
	// Phase A: flatten and per-leaf statistics, in parallel — on a cold
	// index flattening an expanded query (it intersects the phrase and
	// window leaves nobody resolved yet) is a large share of the cost.
	fanOutShards(c.Sem, g, (*gather).statsPhase)
	if err := settle("stats phase: "); err != nil {
		return false, err
	}

	// Flatten is structure-driven — leaf set, order and normalised
	// weights depend only on the query tree and the analyzer — so every
	// partition must report the same leaves per tree; a divergence means
	// one was built against a different analyzer and scoring would be
	// silently wrong.
	ref := -1
	for i := range calls {
		if calls[i].down != nil {
			continue
		}
		if ref == -1 {
			ref = i
		} else if !slices.Equal(calls[i].ends, calls[ref].ends) {
			return false, fmt.Errorf("search: partition %d flattened %d leaves ending at %v, partition %d %d ending at %v",
				i, len(calls[i].leaves), calls[i].ends, ref, len(calls[ref].leaves), calls[ref].ends)
		}
	}
	nLeaves := len(calls[ref].leaves)
	if st != nil {
		st.Leaves = nLeaves
	}
	if nLeaves == 0 {
		return false, nil
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}

	// The global-statistics override over the contributing partitions:
	// integer sums, order-independent, so every path floors the same
	// collection probability.
	req := &g.req
	*req = EvalRequest{
		K:              k,
		Mu:             resolveMu(c.Mu),
		DisablePruning: c.DisablePruning,
		Overrides:      grow(req.Overrides, nLeaves),
		WantStats:      st != nil,
		forcePrune:     c.forcePrune,
		backfill:       g.backfill,
	}
	var totalToks int64
	for i := range parts {
		if calls[i].down == nil {
			totalToks += parts[i].totalTokens()
		}
	}
	for li := range req.Overrides {
		var cf int64
		for i := range calls {
			if calls[i].down == nil {
				cf += calls[i].leaves[li].CF
			}
		}
		req.Overrides[li] = LeafOverride{CF: cf, CollProb: index.FloorProb(cf, totalToks)}
	}

	// Phase B: per-partition evaluation of every tree into bounded top-k
	// rankings.
	fanOutShards(c.Sem, g, (*gather).evalPhase)
	if st != nil {
		st.Shards = make([]ShardStats, n)
		union := 0
		for i := range calls {
			pst := &calls[i].st
			union = max(union, pst.Leaves)
			st.Add(*pst)
			st.Shards[i] = ShardStats{
				Elapsed:            pst.Elapsed,
				CandidatesExamined: pst.CandidatesExamined,
				PostingsAdvanced:   pst.PostingsAdvanced,
				DocsSkipped:        pst.DocsSkipped,
			}
		}
		// Leaves is per partition, not a sum: the largest union a
		// partition evaluated. A shard server's count does not cross the
		// wire; with none reported it stays the flattened count.
		st.Leaves = cmp.Or(union, nLeaves)
	}
	if err := settle(""); err != nil {
		return false, err
	}
	for i := range calls {
		dropped = dropped || calls[i].down == nil && calls[i].dropped
	}

	// Per tree, merge the partitions' rankings — each already in the
	// global order over its own documents — into the top k, taking the
	// best head each step: the ranking is copied once, into the fresh
	// slice the caller keeps. Partitions resolved document names
	// themselves, so their results are complete already.
	heads := grow(g.heads, n)
	g.heads = heads
	for t := range out {
		if dropped && t == len(out)-1 {
			break
		}
		total := 0
		for i := range calls {
			heads[i] = 0
			if calls[i].down == nil {
				total += len(calls[i].res[t])
			}
		}
		if total == 0 {
			continue
		}
		ranked := make([]Result, min(total, k))
		for r := range ranked {
			best := -1
			for i := range calls {
				if calls[i].down == nil && heads[i] < len(calls[i].res[t]) &&
					(best < 0 || byRank(calls[i].res[t][heads[i]], calls[best].res[t][heads[best]]) < 0) {
					best = i
				}
			}
			ranked[r] = calls[best].res[t][heads[best]]
			heads[best]++
		}
		out[t] = ranked
	}
	return dropped, nil
}

// byRank is the global result ordering: score desc, DocID asc — a total
// order, since a DocID is in one partition only.
func byRank(a, b Result) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	return cmp.Compare(a.Doc, b.Doc)
}

// fanOutShards runs phase(g, i) for every partition i, using extra
// goroutines where the semaphore (if any) has free slots and the
// caller's goroutine otherwise. It never blocks on the semaphore — see
// ShardConfig.Sem. Partition 0 always runs on the caller's goroutine,
// after the others have been launched.
func fanOutShards(sem chan struct{}, g *gather, phase func(g *gather, i int)) {
	n := len(g.parts)
	wg := &g.wg
	for i := 1; i < n; i++ {
		if sem == nil {
			wg.Add(1)
			go func(i int) { defer wg.Done(); phase(g, i) }(i)
			continue
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer func() { <-sem; wg.Done() }()
				phase(g, i)
			}(i)
		default:
			phase(g, i)
		}
	}
	phase(g, 0)
	wg.Wait()
}
