package sqe

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/search"
)

// DegradationPolicy configures graceful degradation for Engine.Do: what
// the pipeline does when a stage fails or stalls instead of failing the
// whole request. Installing one (WithDegradation) always means two
// things:
//
//   - partial shard merges: a shard whose evaluation fails (error,
//     panic, or ShardDeadline) is dropped and the survivors' results
//     merged, reported in SearchResponse.Degraded. Shards fail only
//     after the cross-shard statistics override, so the partial ranking
//     is exactly the complete ranking minus the dropped shards'
//     documents. A single index is one shard, with nothing to salvage
//     when it fails;
//   - expansion fallback: a failed motif expansion is replaced by the
//     plain unexpanded query (QL_Q over the same text), counted in
//     Degraded.ExpansionFallbacks. SQE_C's three runs each fall back on
//     their own.
//
// The fields are what a deployment tunes: ShardDeadline bounds each
// attempt of each shard call (0 = none), MaxRetries re-runs a stage that
// failed with a transient fault that many extra times (negative = none),
// and attempt i waits i×RetryBackoff. The zero value degrades with no
// retries and no deadline; DefaultDegradation is the recommended serving
// configuration.
type DegradationPolicy = search.DegradeOptions

// DefaultDegradation is the recommended serving policy: one retry with a
// small backoff and a generous per-shard deadline.
func DefaultDegradation() DegradationPolicy {
	return DegradationPolicy{
		ShardDeadline: 2 * time.Second,
		MaxRetries:    1,
		RetryBackoff:  2 * time.Millisecond,
	}
}

// WithDegradation enables graceful degradation under the given policy.
// Without this option the engine keeps its strict all-or-nothing
// behaviour: any stage failure fails the request.
func WithDegradation(p DegradationPolicy) Option {
	return func(e *Engine) { e.degrade = &p }
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
	// ExpansionFallbacks counts motif expansions replaced by the plain
	// unexpanded query.
	ExpansionFallbacks int `json:"expansion_fallbacks,omitempty"`
	// Retries counts stage re-runs after transient faults, successful
	// or not. Retries alone do not make a response degraded — a request
	// that succeeded on a retry is complete and exact.
	Retries int `json:"retries,omitempty"`
}

// Degraded reports whether the response's results were actually
// affected — shards dropped, or an expansion replaced by its fallback.
// Retries alone return false.
func (d *Degradation) Degraded() bool {
	return d != nil && (len(d.DroppedShards) > 0 || d.ExpansionFallbacks > 0)
}

// empty reports whether nothing at all happened (the response omits the
// struct entirely then).
func (d *Degradation) empty() bool {
	return len(d.DroppedShards) == 0 && d.ExpansionFallbacks == 0 && d.Retries == 0
}

// expand is the one expansion step behind Do and Expand: the
// core.motif_expand fault point, then the (cached) motif search for one
// set. With degradation on (deg non-nil) it runs behind panic
// containment and transient retry, the retries counted into deg; with
// deg nil it runs bare. What a failure then means is the caller's: Do
// falls back to the unexpanded query, Expand returns it.
func (e *Engine) expand(ctx context.Context, nodes []NodeID, set MotifSet, ps *PipelineStats, deg *Degradation) (qg core.QueryGraph, err error) {
	f := func() error {
		if err := fault.Check(fault.MotifExpand); err != nil {
			return err
		}
		qg = e.expander.BuildQueryGraphCached(nodes, set, e.cache, ps)
		return nil
	}
	if deg == nil {
		err = f()
		return qg, err
	}
	var retries int
	retries, err = fault.Retry(ctx, e.degrade.MaxRetries, e.degrade.RetryBackoff, fault.IsTransient, func() error {
		return fault.Contain(f)
	})
	deg.Retries += retries
	return qg, err
}
