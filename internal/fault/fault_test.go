package fault_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/fault"
)

// outcome classifies one Check call for schedule comparison.
type outcome int

const (
	outNil outcome = iota
	outErr
	outTransient
	outPanic
)

// drive issues n Check calls against an armed registry and records each
// call's outcome, recovering injected panics.
func drive(t *testing.T, p fault.Point, n int) []outcome {
	t.Helper()
	out := make([]outcome, 0, n)
	for i := 0; i < n; i++ {
		func() {
			defer func() {
				if v := recover(); v != nil {
					if _, ok := v.(*fault.InjectedPanic); !ok {
						panic(v)
					}
					out = append(out, outPanic)
				}
			}()
			switch err := fault.Check(p); {
			case err == nil:
				out = append(out, outNil)
			case fault.IsTransient(err):
				out = append(out, outTransient)
			default:
				out = append(out, outErr)
			}
		}()
	}
	return out
}

func TestScheduleDeterministicFromSeed(t *testing.T) {
	defer fault.Disarm()
	pol := fault.Policy{ErrRate: 0.3, Transient: true, PanicRate: 0.1}
	run := func(seed int64) []outcome {
		fault.Arm(fault.NewRegistry(seed).Set(fault.ShardEval, pol))
		return drive(t, fault.ShardEval, 200)
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical 200-call schedules")
	}
}

func TestMaxFaultsBudget(t *testing.T) {
	defer fault.Disarm()
	reg := fault.NewRegistry(1).Set(fault.ShardEval, fault.Policy{ErrRate: 1, MaxFaults: 2})
	fault.Arm(reg)
	var errs int
	for i := 0; i < 10; i++ {
		if fault.Check(fault.ShardEval) != nil {
			errs++
		}
	}
	if errs != 2 {
		t.Fatalf("MaxFaults=2 with ErrRate=1 injected %d errors over 10 checks", errs)
	}
	st := reg.Stats()[fault.ShardEval]
	if st.Hits != 10 || st.Errors != 2 || st.Panics != 0 {
		t.Fatalf("stats = %+v, want Hits=10 Errors=2 Panics=0", st)
	}
	if reg.TotalInjected() != 2 {
		t.Fatalf("TotalInjected = %d, want 2", reg.TotalInjected())
	}
}

func TestMaxFaultsDoesNotCapLatency(t *testing.T) {
	defer fault.Disarm()
	reg := fault.NewRegistry(1).Set(fault.IndexPostings,
		fault.Policy{ErrRate: 1, MaxFaults: 1, LatencyRate: 1})
	fault.Arm(reg)
	for i := 0; i < 5; i++ {
		func() {
			defer func() { recover() }()
			_ = fault.Check(fault.IndexPostings)
		}()
	}
	st := reg.Stats()[fault.IndexPostings]
	if st.Errors != 1 {
		t.Fatalf("Errors = %d, want 1 (budget)", st.Errors)
	}
	if st.Delays != 5 {
		t.Fatalf("Delays = %d, want 5 (latency ignores the fault budget)", st.Delays)
	}
}

func TestDisarmedCheckIsFree(t *testing.T) {
	fault.Disarm()
	if fault.Armed() != nil {
		t.Fatal("Armed() non-nil after Disarm")
	}
	if err := fault.Check(fault.ShardEval); err != nil {
		t.Fatalf("disarmed Check returned %v", err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		_ = fault.Check(fault.IndexPostings)
	})
	if allocs != 0 {
		t.Fatalf("disarmed Check allocates %.1f per call, want 0", allocs)
	}
}

func TestUnconfiguredPointIsQuiet(t *testing.T) {
	defer fault.Disarm()
	reg := fault.NewRegistry(1).Set(fault.ShardEval, fault.Policy{ErrRate: 1})
	fault.Arm(reg)
	if err := fault.Check(fault.MotifExpand); err != nil {
		t.Fatalf("unconfigured point injected %v", err)
	}
	if _, ok := reg.Stats()[fault.MotifExpand]; ok {
		t.Fatal("unconfigured point grew a stats entry")
	}
}

func TestPanicInjectionAndRecovery(t *testing.T) {
	defer fault.Disarm()
	fault.Arm(fault.NewRegistry(1).Set(fault.ShardEval, fault.Policy{PanicRate: 1}))
	var pe *fault.PanicError
	func() {
		defer func() {
			if v := recover(); v != nil {
				pe = fault.AsPanicError(v, []byte("stack"))
			}
		}()
		_ = fault.Check(fault.ShardEval)
		t.Fatal("Check with PanicRate=1 returned")
	}()
	if pe == nil {
		t.Fatal("no panic injected")
	}
	if _, ok := pe.Value.(*fault.InjectedPanic); !ok {
		t.Fatalf("panic value is %T, want *fault.InjectedPanic", pe.Value)
	}
	if !fault.IsInjected(pe) {
		t.Fatal("IsInjected false for a recovered injected panic")
	}
	if fault.IsTransient(pe) {
		t.Fatal("IsTransient true for a panic")
	}
}

func TestErrorClassification(t *testing.T) {
	transient := &fault.Error{Point: fault.ShardEval, Transient: true}
	hard := &fault.Error{Point: fault.ShardEval}
	cases := []struct {
		name      string
		err       error
		injected  bool
		transient bool
	}{
		{"nil", nil, false, false},
		{"plain", errors.New("disk on fire"), false, false},
		{"injected hard", hard, true, false},
		{"injected transient", transient, true, true},
		{"wrapped transient", fmt.Errorf("shard 3: %w", transient), true, true},
		{"double wrapped", fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", hard)), true, false},
		{"genuine panic", fault.AsPanicError(errors.New("nil map write"), nil), false, false},
		{"injected panic", fault.AsPanicError(&fault.InjectedPanic{Point: fault.ShardEval}, nil), true, false},
	}
	for _, c := range cases {
		if got := fault.IsInjected(c.err); got != c.injected {
			t.Errorf("%s: IsInjected = %v, want %v", c.name, got, c.injected)
		}
		if got := fault.IsTransient(c.err); got != c.transient {
			t.Errorf("%s: IsTransient = %v, want %v", c.name, got, c.transient)
		}
	}
}

func TestPointsCatalogIsACopy(t *testing.T) {
	a := fault.Points()
	if len(a) == 0 {
		t.Fatal("empty point catalog")
	}
	a[0] = "mutated"
	if b := fault.Points(); b[0] == "mutated" {
		t.Fatal("Points() returns a shared slice")
	}
}

// TestRetry pins the one retry loop: a negative budget still runs the
// call once, transient failures are re-run up to the budget, anything
// else ends the loop, and a context finishing during a backoff ends it
// with the context's error.
func TestRetry(t *testing.T) {
	transient := &fault.Error{Point: fault.ShardEval, Transient: true}
	ctx := context.Background()
	for _, c := range []struct {
		name         string
		maxRetries   int
		fails        int
		err          error
		calls, retry int
	}{
		{"negative budget runs once", -1, 0, nil, 1, 0},
		{"negative budget surfaces the failure", -3, 1, transient, 1, 0},
		{"retried to success", 2, 2, nil, 3, 2},
		{"out of retries", 1, 5, transient, 2, 1},
	} {
		calls := 0
		retries, err := fault.Retry(ctx, c.maxRetries, 0, fault.IsTransient, func() error {
			calls++
			if calls <= c.fails {
				return transient
			}
			return nil
		})
		if err != c.err || calls != c.calls || retries != c.retry {
			t.Errorf("%s: err %v after %d calls and %d retries, want %v, %d, %d", c.name, err, calls, retries, c.err, c.calls, c.retry)
		}
	}
	hard := errors.New("hard")
	calls := 0
	if _, err := fault.Retry(ctx, 3, 0, fault.IsTransient, func() error { calls++; return hard }); err != hard || calls != 1 {
		t.Errorf("non-retryable failure: err %v after %d calls", err, calls)
	}
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	retries, err := fault.Retry(cctx, 3, time.Hour, fault.IsTransient, func() error { return transient })
	if !errors.Is(err, context.DeadlineExceeded) || retries != 1 {
		t.Errorf("cancelled during backoff: err %v, %d retries", err, retries)
	}
}
