package sqe

import (
	"context"
	"runtime/debug"
	"time"

	"repro/internal/fault"
	"repro/internal/search"
)

// DegradationPolicy configures graceful degradation for Engine.Do: what
// the pipeline does when a stage fails or stalls instead of failing the
// whole request. The zero value degrades nothing (but still contains
// panics in pipeline stages, turning them into errors). Install it with
// WithDegradation; DefaultDegradation is the recommended serving
// configuration.
type DegradationPolicy struct {
	// PartialShards merges the surviving shards' results when a shard's
	// evaluation fails (error, panic, or ShardDeadline), reporting the
	// dropped shards in SearchResponse.Degraded. Surviving shards'
	// scores are unaffected — shards fail only after the cross-shard
	// statistics override, so the partial ranking is exactly the
	// complete ranking minus the dropped shards' documents.
	PartialShards bool
	// ShardDeadline bounds each shard evaluation attempt (0 = none).
	ShardDeadline time.Duration
	// ExpansionFallback retries a failed motif expansion as the plain
	// unexpanded query (QL_Q over the same text). The response then
	// carries no Expansion and Degraded.ExpansionFallbacks counts the
	// substitution.
	ExpansionFallback bool
	// PartialSQEC lets an SQE_C request continue when one of its three
	// runs (T, T&S, S) fails: the splice combines the surviving run
	// lists and Degraded.DroppedRuns names the missing ones. All three
	// failing fails the request with the first run's error.
	PartialSQEC bool
	// MaxRetries re-runs a stage that failed with a transient fault
	// (fault.IsTransient) up to this many extra times before the
	// failure is degraded or surfaced.
	MaxRetries int
	// RetryBackoff is the base delay between retries; attempt i waits
	// i×RetryBackoff.
	RetryBackoff time.Duration
}

// DefaultDegradation is the recommended serving policy: every
// degradation mechanism on, one retry with a small backoff, and a
// generous per-shard deadline.
func DefaultDegradation() DegradationPolicy {
	return DegradationPolicy{
		PartialShards:     true,
		ShardDeadline:     2 * time.Second,
		ExpansionFallback: true,
		PartialSQEC:       true,
		MaxRetries:        1,
		RetryBackoff:      2 * time.Millisecond,
	}
}

// WithDegradation enables graceful degradation under the given policy.
// Without this option the engine keeps its strict all-or-nothing
// behaviour: any stage failure fails the request.
func WithDegradation(p DegradationPolicy) Option {
	return func(e *Engine) {
		pol := p
		e.degrade = &pol
	}
}

// Degradation reports what graceful degradation did to one request; it
// appears as SearchResponse.Degraded only when at least one field is
// non-zero. Parent-context cancellation is never degraded away: a
// cancelled request fails with the context's error, not a partial
// response.
type Degradation struct {
	// DroppedShards lists the index shards whose results are missing
	// from the ranking. For SQE_C requests the three runs retrieve
	// independently, so a shard index may appear once per run that
	// dropped it.
	DroppedShards []int `json:"dropped_shards,omitempty"`
	// ShardErrors[i] is the failure that dropped DroppedShards[i].
	ShardErrors []string `json:"shard_errors,omitempty"`
	// DroppedRuns names the SQE_C runs ("T", "TS", "S") whose lists are
	// missing from the splice.
	DroppedRuns []string `json:"dropped_runs,omitempty"`
	// ExpansionFallbacks counts motif expansions replaced by the plain
	// unexpanded query.
	ExpansionFallbacks int `json:"expansion_fallbacks,omitempty"`
	// Retries counts stage re-runs after transient faults, successful
	// or not. Retries alone do not make a response degraded — a request
	// that succeeded on a retry is complete and exact.
	Retries int `json:"retries,omitempty"`
}

// Degraded reports whether the response's results were actually
// affected — shards or runs dropped, or an expansion replaced by its
// fallback. Retries alone return false.
func (d *Degradation) Degraded() bool {
	return d != nil && (len(d.DroppedShards) > 0 || len(d.DroppedRuns) > 0 || d.ExpansionFallbacks > 0)
}

// empty reports whether nothing at all happened (the response omits the
// struct entirely then).
func (d *Degradation) empty() bool {
	return len(d.DroppedShards) == 0 && len(d.DroppedRuns) == 0 &&
		d.ExpansionFallbacks == 0 && d.Retries == 0
}

// add folds o into d; doC merges the per-run records in run order, so
// parallel and sequential SQE_C report identically.
func (d *Degradation) add(o *Degradation) {
	if o == nil {
		return
	}
	d.DroppedShards = append(d.DroppedShards, o.DroppedShards...)
	d.ShardErrors = append(d.ShardErrors, o.ShardErrors...)
	d.DroppedRuns = append(d.DroppedRuns, o.DroppedRuns...)
	d.ExpansionFallbacks += o.ExpansionFallbacks
	d.Retries += o.Retries
}

// absorb folds a sharded search's partial-result report into d.
func (d *Degradation) absorb(pi search.PartialInfo) {
	d.DroppedShards = append(d.DroppedShards, pi.DroppedShards...)
	d.ShardErrors = append(d.ShardErrors, pi.ShardErrors...)
	d.Retries += pi.Retries
}

// searchDegradeOptions maps the engine policy onto the partitioned
// searcher's knobs.
func (e *Engine) searchDegradeOptions() *search.DegradeOptions {
	return &search.DegradeOptions{
		AllowPartial:  e.degrade.PartialShards,
		ShardDeadline: e.degrade.ShardDeadline,
		MaxRetries:    e.degrade.MaxRetries,
		RetryBackoff:  e.degrade.RetryBackoff,
	}
}

// guardPanic runs f, converting a panic — injected or genuine — into an
// error carrying the panic value and stack.
func guardPanic(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fault.AsPanicError(v, debug.Stack())
		}
	}()
	return f()
}

// retryTransient runs f, re-running it after transient faults up to
// pol.MaxRetries extra times with linear backoff. Retries are counted
// into deg; parent-context cancellation aborts the loop immediately.
func retryTransient(ctx context.Context, pol *DegradationPolicy, deg *Degradation, f func() error) error {
	var err error
	for attempt := 0; attempt <= pol.MaxRetries; attempt++ {
		if attempt > 0 {
			deg.Retries++
			if pol.RetryBackoff > 0 {
				t := time.NewTimer(time.Duration(attempt) * pol.RetryBackoff)
				select {
				case <-ctx.Done():
					t.Stop()
					return ctx.Err()
				case <-t.C:
				}
			}
		}
		err = f()
		if err == nil || !fault.IsTransient(err) || ctx.Err() != nil {
			break
		}
	}
	return err
}

// buildQuery runs entity expansion and query construction for one motif
// set. With degradation enabled (deg non-nil) the stage is guarded —
// fault hook, panic containment, transient retry — and, under
// ExpansionFallback, a failed expansion degrades to the plain
// unexpanded query (nil Expansion) instead of failing the request.
func (e *Engine) buildQuery(ctx context.Context, query string, nodes []NodeID, set MotifSet, ps *PipelineStats, deg *Degradation) (search.Node, *Expansion, error) {
	if deg == nil || e.degrade == nil {
		qg := e.expander.BuildQueryGraphCached(nodes, set, e.cache, ps)
		return e.expander.BuildQueryStats(query, qg, ps), e.expansionOf(qg), nil
	}
	var node search.Node
	var exp *Expansion
	err := retryTransient(ctx, e.degrade, deg, func() error {
		return guardPanic(func() error {
			if err := fault.Check(fault.MotifExpand); err != nil {
				return err
			}
			qg := e.expander.BuildQueryGraphCached(nodes, set, e.cache, ps)
			exp = e.expansionOf(qg)
			node = e.expander.BuildQueryStats(query, qg, ps)
			return nil
		})
	})
	if err != nil {
		if e.degrade.ExpansionFallback && ctx.Err() == nil {
			deg.ExpansionFallbacks++
			return e.expander.QLQuery(query), nil, nil
		}
		return nil, nil, err
	}
	return node, exp, nil
}
