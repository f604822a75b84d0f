package sqe

import (
	"context"
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
	// dropped shards in SearchResponse.Degraded. A single index is one
	// shard, with nothing to salvage when it fails. Surviving shards'
	// scores are unaffected — shards fail only after the cross-shard
	// statistics override, so the partial ranking is exactly the
	// complete ranking minus the dropped shards' documents.
	PartialShards bool
	// ShardDeadline bounds each attempt of each shard call (0 = none);
	// on an unsharded engine the whole index is the one shard.
	ShardDeadline time.Duration
	// ExpansionFallback retries a failed motif expansion as the plain
	// unexpanded query (QL_Q over the same text). The response then
	// carries no Expansion and Degraded.ExpansionFallbacks counts the
	// substitution.
	ExpansionFallback bool
	// PartialSQEC lets an SQE_C request continue when one of its three
	// runs (T, T&S, S) fails its expansion or query build: the run is
	// dropped before the shared evaluation, the splice combines the
	// surviving run lists and Degraded.DroppedRuns names the missing
	// ones. All three failing fails the request with the first run's
	// error. A failed evaluation is not a run's failure: it is retried
	// (or shard-degraded under PartialShards) for the request as a whole.
	PartialSQEC bool
	// MaxRetries re-runs a stage that failed with a transient fault
	// (fault.IsTransient) up to this many extra times before the
	// failure is degraded or surfaced. A negative count means none: the
	// stage still runs once.
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
	// DroppedShards lists the index shards (a live engine's segments)
	// whose results are missing from the ranking, ascending. A request's
	// trees — SQE_C's three included — share one evaluation, so a shard
	// is in or out for the whole request and appears at most once.
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

// guarded runs f behind panic containment and transient retry (retries
// counted into deg) when degradation is on; with deg nil it runs f bare.
func (e *Engine) guarded(ctx context.Context, deg *Degradation, f func() error) error {
	if deg == nil {
		return f()
	}
	retries, err := fault.Retry(ctx, e.degrade.MaxRetries, e.degrade.RetryBackoff, fault.IsTransient, func() error {
		return fault.Contain(f)
	})
	deg.Retries += retries
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
	err := e.guarded(ctx, deg, func() error {
		if err := fault.Check(fault.MotifExpand); err != nil {
			return err
		}
		qg := e.expander.BuildQueryGraphCached(nodes, set, e.cache, ps)
		exp = e.expansionOf(qg)
		node = e.expander.BuildQueryStats(query, qg, ps)
		return nil
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
