package search

import (
	"context"
	"time"

	"repro/internal/fault"
)

// DegradeOptions is the degradation policy: what a deployment tunes
// about failing or stalling partitions. A non-nil policy always means
// partial merges — the surviving partitions' results are merged when
// some fail (error, panic, or ShardDeadline) — and the engine adds
// expansion fallback on top (sqe.DegradationPolicy is this type). The
// zero value degrades with no deadline and no retries. Parent-context
// cancellation is never degraded away: if the caller's ctx is done, the
// search fails with ctx.Err().
type DegradeOptions struct {
	// ShardDeadline bounds each attempt of each partition call (0 = no
	// per-partition deadline). A partition that exceeds it is treated
	// like a failed one and dropped.
	ShardDeadline time.Duration
	// MaxRetries re-runs a call that failed with a failure classified as
	// transient (fault.IsTransient in process, rpc.IsTransport across
	// the wire) up to this many extra times before declaring it failed.
	// A negative count means none: the call still runs once.
	MaxRetries int
	// RetryBackoff is the base delay between retry attempts; attempt i
	// waits i×RetryBackoff (linear backoff, bounded by MaxRetries).
	RetryBackoff time.Duration
}

// PartialInfo reports what degradation did to one search.
type PartialInfo struct {
	// DroppedShards lists the partitions whose results are missing from
	// the merge, ascending.
	DroppedShards []int
	// ShardErrors[i] is the failure that dropped DroppedShards[i];
	// stats-tier drops carry a "stats phase: " prefix.
	ShardErrors []string
	// Retries counts partition call re-runs after transient failures
	// (successful or not).
	Retries int
}

// attempt drives one partition call under the degradation policy: a
// per-attempt deadline (opts.ShardDeadline), panic containment, and
// bounded retry with linear backoff for failures the partition calls
// retryable — both partition calls are pure reads, so a retry after an
// ambiguous failure is safe. Everything else (deterministic application
// errors, panics, deadline expiry, parent cancellation) ends the loop.
// With nil opts it is a single contained attempt under the caller's
// context. retries reports how many re-runs happened; partitions run
// concurrently, so the coordinator sums the per-partition counts after
// the fan-out instead of sharing a counter.
func attempt(ctx context.Context, opts *DegradeOptions, retryable func(error) bool, call func(ctx context.Context) error) (retries int, err error) {
	var o DegradeOptions
	if opts != nil {
		o = *opts
	}
	return fault.Retry(ctx, o.MaxRetries, o.RetryBackoff, retryable, func() error {
		return fault.Contain(func() error {
			if o.ShardDeadline <= 0 {
				return call(ctx)
			}
			attemptCtx, cancel := context.WithTimeout(ctx, o.ShardDeadline)
			defer cancel()
			return call(attemptCtx)
		})
	})
}
