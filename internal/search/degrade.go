package search

import (
	"context"
	"time"
)

// DegradeOptions configures graceful degradation for partitioned
// retrieval. The zero value disables every mechanism: any partition
// failure fails the query.
type DegradeOptions struct {
	// AllowPartial merges the surviving partitions' results when some
	// fail (error, panic, or per-partition deadline), instead of failing
	// the whole query. Parent-context cancellation is never degraded
	// away: if the caller's ctx is done, the search fails with ctx.Err()
	// regardless of this setting.
	AllowPartial bool
	// ShardDeadline bounds each attempt of each partition call (0 = no
	// per-partition deadline). A partition that exceeds it is treated
	// like a failed one: dropped under AllowPartial, fatal otherwise.
	ShardDeadline time.Duration
	// MaxRetries re-runs a partition call that failed with a failure the
	// partition classifies as transient (fault.IsTransient in process,
	// rpc.IsTransport across the wire) up to this many extra times
	// before declaring the partition failed.
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

// Degraded reports whether any partition was dropped.
func (p *PartialInfo) Degraded() bool { return p != nil && len(p.DroppedShards) > 0 }

// attempt drives one partition call under the degradation policy: a
// per-attempt deadline (opts.ShardDeadline) and bounded retry with
// linear backoff for failures the partition calls retryable — both
// partition calls are pure reads, so a retry after an ambiguous failure
// is safe. Everything else (deterministic application errors, deadline
// expiry, parent cancellation) ends the loop. With nil opts it is a
// single attempt under the caller's context. retries reports how many
// re-runs happened; partitions run concurrently, so the coordinator
// sums the per-partition counts after the fan-out instead of sharing a
// counter.
func attempt(ctx context.Context, opts *DegradeOptions, retryable func(error) bool, call func(ctx context.Context) error) (retries int, err error) {
	attempts := 1
	var backoff time.Duration
	if opts != nil {
		attempts += opts.MaxRetries
		backoff = opts.RetryBackoff
	}
	for i := 0; i < attempts; i++ {
		if i > 0 {
			retries++
			if backoff > 0 {
				t := time.NewTimer(time.Duration(i) * backoff)
				select {
				case <-ctx.Done():
					t.Stop()
					return retries, ctx.Err()
				case <-t.C:
				}
			}
		}
		attemptCtx := ctx
		var cancel context.CancelFunc
		if opts != nil && opts.ShardDeadline > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, opts.ShardDeadline)
		}
		err = call(attemptCtx)
		if cancel != nil {
			cancel()
		}
		if err == nil || !retryable(err) || ctx.Err() != nil {
			break
		}
	}
	return retries, err
}
