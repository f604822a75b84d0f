package search

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/index"
)

// ShardConfig is the retrieval configuration of a partitioned searcher.
// An Engine mirrors its own onto the searcher at construction (the
// engine owns the knobs; the searcher applies them). Like Searcher's
// fields they are read on every call and must not be mutated
// concurrently with searches.
type ShardConfig struct {
	// Mu is the Dirichlet smoothing parameter; zero means DefaultMu.
	Mu float64
	// Model selects the retrieval function (default Dirichlet QL).
	Model Model
	// Params holds the other models' parameters.
	Params ModelParams
	// DisablePruning turns off MaxScore pruning in every partition's
	// evaluator (see Searcher.DisablePruning). With pruning on, each
	// partition prunes against its own top-k threshold — shared-nothing
	// — which is safe because every partition must surface its local
	// top k for the merge regardless of what the others hold. Results
	// are bit-identical either way.
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
	// retries and — under AllowPartial — partial merges. Nil keeps the
	// strict all-or-nothing behaviour.
	Degrade *DegradeOptions
}

// Evaluation is the outcome of one Evaluate call.
type Evaluation struct {
	// Results is the global top k (score desc, DocID asc).
	Results []Result
	// Stats is zero unless EvalOptions.CollectStats was set.
	Stats SearchStats
	// Partial reports dropped partitions and retries; zero unless
	// EvalOptions.Degrade was set and something happened.
	Partial PartialInfo
}

// Distributed is the engine-facing contract of partitioned retrieval,
// satisfied by ShardedSearcher, SegmentedSearcher and RemoteSharded —
// which are one coordinator over three kinds of partition, so they
// return bit-identical rankings over the same documents.
type Distributed interface {
	// NumShards returns the shard count S.
	NumShards() int
	// Configure applies the engine's retrieval configuration. Called
	// once at engine construction, before any searches.
	Configure(cfg ShardConfig)
	// Evaluate returns the global top k for q.
	Evaluate(ctx context.Context, q Node, k int, opts EvalOptions) (Evaluation, error)
}

// coordinator is the scatter-gather evaluator the three partitioned
// searchers embed; its configuration fields are promoted onto them.
type coordinator struct {
	ShardConfig
	// forcePrune mirrors Searcher.forcePrune for in-process partitions
	// (test-only; it does not cross the wire).
	forcePrune bool
	// shards is what NumShards reports.
	shards int
	// pin returns the partitions one evaluation runs over, with a
	// release to call afterwards when they hold a pin (nil otherwise).
	pin func() (parts []partition, release func(), err error)
}

// fixed makes pin return the same partitions for every evaluation.
func fixed(parts []partition) func() ([]partition, func(), error) {
	return func() ([]partition, func(), error) { return parts, nil, nil }
}

// NumShards implements Distributed.
func (c *coordinator) NumShards() int { return c.shards }

// Configure implements Distributed.
func (c *coordinator) Configure(cfg ShardConfig) { c.ShardConfig = cfg }

func (c *coordinator) resolveParams() ModelParams {
	params := c.Params.withDefaults()
	if c.Mu > 0 {
		params.Mu = c.Mu
	}
	return params
}

// Evaluate implements Distributed: it pins the current partitions and
// runs the scatter-gather over them.
func (c *coordinator) Evaluate(ctx context.Context, q Node, k int, opts EvalOptions) (Evaluation, error) {
	var ev Evaluation
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
	ev.Results, err = c.scatterGather(ctx, parts, q, k, opts.Degrade, st, &ev.Partial)
	if st != nil {
		st.Elapsed = time.Since(start)
	}
	return ev, err
}

// SearchWithStatsContext is Evaluate with CollectStats, unpacked. It is
// kept only as the method value bench/sut.go binds on every searcher
// type; new code calls Evaluate.
func (c *coordinator) SearchWithStatsContext(ctx context.Context, q Node, k int) ([]Result, SearchStats, error) {
	ev, err := c.Evaluate(ctx, q, k, EvalOptions{CollectStats: true})
	return ev.Results, ev.Stats, err
}

// scatterGather is the partitioned evaluation; DESIGN.md "Partitioned
// evaluation" gives the exactness argument. Phase A gathers per-leaf
// statistics from every partition, the coordinator sums them into global
// overrides, phase B evaluates every partition under those overrides,
// and the bounded per-partition rankings merge by (score desc, DocID
// asc).
//
// Under opts.AllowPartial a failing partition is taken out instead of
// failing the query, in two tiers: out in phase A, it never reported
// statistics and the survivors score against the surviving sub-corpus;
// out in phase B, the override already happened and the partial ranking
// is exactly the complete ranking minus its documents. Parent-context
// cancellation is the caller's signal and is never degraded away, and a
// phase nothing survives returns its first error — an empty "partial"
// result would be indistinguishable from a query matching nothing.
func (c *coordinator) scatterGather(ctx context.Context, parts []partition, q Node, k int, opts *DegradeOptions, st *SearchStats, pi *PartialInfo) ([]Result, error) {
	n := len(parts)
	if n == 0 {
		return nil, nil
	}
	strict := opts == nil || !opts.AllowPartial

	// down[i] is the failure that took partition i out (stats-tier ones
	// labelled), nil while it is in. However the search ends, pi lists
	// what was taken out, ascending.
	down := make([]error, n)
	defer func() {
		for i, err := range down {
			if err != nil {
				pi.DroppedShards = append(pi.DroppedShards, i)
				pi.ShardErrors = append(pi.ShardErrors, err.Error())
			}
		}
	}()
	// call is one partition's outcome in one phase.
	type call struct {
		leaves   []LeafStats
		prepared any
		res      []Result
		err      error
		retries  int
	}
	// settle takes one phase's failures out, and returns the error that
	// ends the search, if any.
	settle := func(outs []call, label string) error {
		var firstErr error
		survivors := 0
		for i := range outs {
			pi.Retries += outs[i].retries
		}
		for i := range outs {
			if down[i] != nil {
				continue
			}
			err := outs[i].err
			if err == nil {
				survivors++
				continue
			}
			if strict || ctx.Err() != nil {
				return err
			}
			down[i] = fmt.Errorf("%s%w", label, err)
			if firstErr == nil {
				firstErr = err
			}
		}
		if survivors == 0 {
			return firstErr
		}
		return nil
	}

	// partStats[i] collects partition i's counters over both phases:
	// the positional-memo lookups of its flatten, then its evaluator's.
	var partStats []SearchStats
	if st != nil {
		partStats = make([]SearchStats, n)
	}
	partStat := func(i int) *SearchStats {
		if st == nil {
			return nil
		}
		return &partStats[i]
	}

	// Phase A: flatten and per-leaf statistics, in parallel — on a cold
	// index flattening an expanded query (it intersects the phrase and
	// window leaves nobody resolved yet) is a large share of the cost.
	statsOuts := make([]call, n)
	fanOutShards(c.Sem, n, func(i int) {
		o := &statsOuts[i]
		o.retries, o.err = attempt(ctx, opts, parts[i].retryable, func(ctx context.Context) (err error) {
			o.leaves, o.prepared, err = parts[i].stats(ctx, q, partStat(i))
			return err
		})
	})
	if err := settle(statsOuts, "stats phase: "); err != nil {
		return nil, err
	}

	// Flatten is structure-driven — leaf set, order and normalised
	// weights depend only on the query tree and the analyzer — so every
	// partition must report the same leaf count; a divergence means one
	// was built against a different analyzer and scoring would be
	// silently wrong.
	nLeaves, ref := -1, -1
	for i := range statsOuts {
		if down[i] != nil {
			continue
		}
		got := len(statsOuts[i].leaves)
		if nLeaves == -1 {
			nLeaves, ref = got, i
		} else if got != nLeaves {
			return nil, fmt.Errorf("search: partition %d flattened %d leaves, partition %d flattened %d", i, got, ref, nLeaves)
		}
	}
	if nLeaves == 0 {
		return nil, nil
	}
	if st != nil {
		st.Leaves = nLeaves
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The global-statistics override over the contributing partitions.
	// Integer sums are order-independent; the float df sum runs in
	// ascending partition order so it, and everything downstream, is the
	// same double on every path.
	params := c.resolveParams()
	req := &EvalRequest{
		K:              k,
		Model:          int(c.Model),
		Mu:             params.Mu,
		Lambda:         params.Lambda,
		K1:             params.K1,
		B:              params.B,
		DisablePruning: c.DisablePruning,
		Overrides:      make([]LeafOverride, nLeaves),
		WantStats:      st != nil,
		forcePrune:     c.forcePrune,
	}
	for i := range parts {
		if down[i] == nil {
			numDocs, totalToks := parts[i].totals()
			req.NumDocs += numDocs
			req.TotalToks += totalToks
		}
	}
	for li := range req.Overrides {
		var cf int64
		var df float64
		for i := range statsOuts {
			if down[i] == nil {
				cf += statsOuts[i].leaves[li].CF
				df += statsOuts[i].leaves[li].DF
			}
		}
		req.Overrides[li] = LeafOverride{CF: cf, DF: df, CollProb: index.FloorProb(cf, req.TotalToks)}
	}

	// Phase B: per-partition evaluation into bounded top-k rankings.
	// Failed attempts leave their counters in the partition's stats, so
	// a dropped partition still reports the work it did.
	evalOuts := make([]call, n)
	fanOutShards(c.Sem, n, func(i int) {
		if down[i] != nil {
			return
		}
		pst := partStat(i)
		start := time.Now()
		o := &evalOuts[i]
		o.retries, o.err = attempt(ctx, opts, parts[i].retryable, func(ctx context.Context) (err error) {
			o.res, err = parts[i].eval(ctx, statsOuts[i].prepared, req, pst)
			return err
		})
		if pst != nil {
			pst.Elapsed = time.Since(start)
		}
	})
	if st != nil {
		st.Shards = make([]ShardStats, n)
		for i, pst := range partStats {
			st.Add(pst)
			st.Shards[i] = ShardStats{
				Elapsed:            pst.Elapsed,
				CandidatesExamined: pst.CandidatesExamined,
				PostingsAdvanced:   pst.PostingsAdvanced,
				DocsSkipped:        pst.DocsSkipped,
			}
		}
	}
	if err := settle(evalOuts, ""); err != nil {
		return nil, err
	}

	// Merge the ≤ n·k survivors by the global result ordering and
	// truncate. Partitions resolved document names themselves, so
	// survivors are complete Results already. The merge accumulates into
	// a pooled backing; only the final ≤ k slice is copied out (results
	// outlive the scratch).
	msc := getScratch()
	defer putScratch(msc)
	all := msc.merged[:0]
	for i := range evalOuts {
		if down[i] == nil {
			all = append(all, evalOuts[i].res...)
		}
	}
	msc.merged = all
	sort.Sort(&resultSorter{all})
	if len(all) > k {
		all = all[:k]
	}
	if len(all) == 0 {
		return nil, nil
	}
	out := make([]Result, len(all))
	copy(out, all)
	return out, nil
}

// fanOutShards runs f(0..n-1), using extra goroutines where the
// semaphore (if any) has free slots and the caller's goroutine
// otherwise. It never blocks on the semaphore — see ShardConfig.Sem.
// Partition 0 always runs on the caller's goroutine, after the others
// have been launched.
func fanOutShards(sem chan struct{}, n int, f func(i int)) {
	if n == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		if sem == nil {
			wg.Add(1)
			go func(i int) { defer wg.Done(); f(i) }(i)
			continue
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer func() { <-sem; wg.Done() }()
				f(i)
			}(i)
		default:
			f(i)
		}
	}
	f(0)
	wg.Wait()
}
