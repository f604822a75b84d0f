package fault

import (
	"context"
	"runtime/debug"
	"time"
)

// Contain runs call, converting a panic — injected or genuine — into a
// *PanicError carrying the panic value and stack.
func Contain(call func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = AsPanicError(v, debug.Stack())
		}
	}()
	return call()
}

// Retry runs call, re-running it after failures retryable accepts up to
// maxRetries extra times (a negative count means none) with linear
// backoff: re-run i first waits i×backoff. A success, a failure
// retryable refuses, or a done ctx ends the loop; ctx finishing during a
// backoff returns ctx.Err(). retries counts the re-runs, including one
// abandoned in its backoff.
func Retry(ctx context.Context, maxRetries int, backoff time.Duration, retryable func(error) bool, call func() error) (retries int, err error) {
	for i := 0; i <= max(maxRetries, 0); i++ {
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
		err = call()
		if err == nil || !retryable(err) || ctx.Err() != nil {
			break
		}
	}
	return retries, err
}
