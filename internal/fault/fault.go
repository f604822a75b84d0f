// Package fault is a deterministic fault-injection registry for chaos
// testing the serving pipeline. The ROADMAP's production north star —
// heavy traffic over a sharded, cached, pruned engine — means individual
// lookups can be slow or fail (the regime "Massive Query Expansion by
// Exploiting Graph Knowledge Bases" frames for KB-backed expansion);
// before the engine can degrade gracefully, the failure modes have to be
// producible on demand, repeatably, in tests.
//
// The model: hot paths are annotated with named injection points
// (Check(point) calls). A Registry maps points to per-point policies —
// error rate, added latency, panic rate — driven by a seeded RNG, so a
// fault schedule is reproducible from its seed. Arm installs a registry
// globally; Disarm removes it. When no registry is armed, Check is a
// single atomic pointer load returning nil — the hot paths pay nothing
// measurable, and behaviour is bit-identical to a build without the
// calls (the golden and differential tests enforce exactly that).
//
// Injected failures come in three shapes:
//
//   - errors: Check returns a *Error (optionally Transient, which the
//     engine's bounded retry-with-backoff treats as retryable);
//   - latency: Check sleeps for the policy's Latency before returning
//     nil (models slow shards and slow KB lookups);
//   - panics: Check panics with an *InjectedPanic (models bugs in deep
//     evaluator code; the degradation layer must contain them).
//
// The registered point catalog (Points) covers the pipeline's hot
// paths: index posting reads inside the evaluator loops, per-shard
// evaluation, motif expansion, the expansion cache, and SQE_C sub-runs.
package fault

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection point. Points are compile-time constants at
// the call sites; the catalog below is the complete set.
type Point string

// The registered injection points.
const (
	// IndexPostings fires inside the posting-read loops of every top-k
	// evaluator (DAAT, MaxScore), at the cancellation-check
	// cadence — a failing or slow posting source.
	IndexPostings Point = "index.postings"
	// ShardEval fires at the start of each shard's evaluation in the
	// sharded searcher — a failing or slow shard.
	ShardEval Point = "search.shard_eval"
	// MotifExpand fires before motif expansion builds the query graph —
	// a failing or slow KB lookup.
	MotifExpand Point = "core.motif_expand"
	// ExpansionCache fires inside the expansion cache's Get and Put — a
	// failing cache backend. The cache degrades to a miss/skip by
	// design, so this point never fails a request on its own.
	ExpansionCache Point = "core.expansion_cache"
	// SQECRun fires once per SQE_C run, around that run's expansion and
	// query build — a run of the combination failing before the shared
	// evaluation, which PartialSQEC splices around.
	SQECRun Point = "engine.sqec_run"
	// RPCClient fires before each RPC call attempt on the coordinator
	// side — a refused, slow, or truncated connection to a shard server.
	// Injected errors surface as transport errors, so the client's
	// bounded retry and the replica group's failover engage exactly as
	// they would for a real network fault.
	RPCClient Point = "rpc.client_call"
	// RPCServer fires before a shard server dispatches a request to its
	// handler — a shard process that accepts connections but fails
	// requests. Injected errors surface as application errors (the
	// server answered), exercising the non-retryable path.
	RPCServer Point = "rpc.server_handle"
	// SegmentFlush fires at the start of a live index's buffer flush —
	// a failing disk write while a segment is being persisted. A flush
	// that fails here leaves the buffer intact and the segment set
	// unchanged; the ingest path retries on the next trigger.
	SegmentFlush Point = "segment.flush"
	// SegmentMerge fires inside a live index's compaction, both before
	// the merge starts and after the merged segment file is written but
	// before the manifest commit — the second site models a crash that
	// leaves an orphan segment file for recovery to clean up.
	SegmentMerge Point = "segment.merge"
	// SegmentManifest fires before a live index's manifest commit — a
	// failing metadata write. The previous manifest stays in place, so
	// a restart recovers the pre-mutation segment set.
	SegmentManifest Point = "segment.manifest"
)

// Points returns the registered point catalog (a fresh copy).
func Points() []Point {
	return []Point{IndexPostings, ShardEval, MotifExpand, ExpansionCache, SQECRun, RPCClient, RPCServer, SegmentFlush, SegmentMerge, SegmentManifest}
}

// Policy configures the faults one point injects. The zero value
// injects nothing.
type Policy struct {
	// ErrRate is the probability per Check of returning an *Error.
	ErrRate float64
	// Transient marks injected errors as retryable by the engine's
	// bounded retry-with-backoff.
	Transient bool
	// LatencyRate is the probability per Check of sleeping Latency.
	LatencyRate float64
	// Latency is the injected delay. Keep it small in tests: Check
	// sleeps synchronously on the calling goroutine.
	Latency time.Duration
	// PanicRate is the probability per Check of panicking with an
	// *InjectedPanic.
	PanicRate float64
	// MaxFaults caps the total number of injected errors + panics at
	// this point (0 = unlimited). Latency does not count against it.
	// Directed tests use MaxFaults to fail exactly one shard or run.
	MaxFaults int64
}

// Error is an injected error. It reports its point and whether the
// engine should treat it as transient (retryable).
type Error struct {
	Point     Point
	Transient bool
}

// Error implements error.
func (e *Error) Error() string {
	kind := "fault"
	if e.Transient {
		kind = "transient fault"
	}
	return fmt.Sprintf("fault: injected %s at %s", kind, e.Point)
}

// InjectedPanic is the value an injected panic carries; the degradation
// layer recovers it (like any other panic) into a *PanicError.
type InjectedPanic struct {
	Point Point
}

// String implements fmt.Stringer so escaped panics print usefully.
func (p *InjectedPanic) String() string {
	return fmt.Sprintf("fault: injected panic at %s", p.Point)
}

// PanicError wraps a recovered panic — injected or genuine — into an
// error carrying the panic value and the goroutine stack at recovery.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// AsPanicError converts a recover() value into a *PanicError; v must be
// non-nil.
func AsPanicError(v any, stack []byte) *PanicError {
	return &PanicError{Value: v, Stack: stack}
}

// IsInjected reports whether err originates from an injected fault
// (directly, or a recovered injected panic).
func IsInjected(err error) bool {
	for err != nil {
		if _, ok := err.(*Error); ok {
			return true
		}
		if pe, ok := err.(*PanicError); ok {
			_, injected := pe.Value.(*InjectedPanic)
			return injected
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// IsTransient reports whether err is an injected transient fault — the
// class the engine's bounded retry-with-backoff retries.
func IsTransient(err error) bool {
	for err != nil {
		if fe, ok := err.(*Error); ok {
			return fe.Transient
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// PointStats are one point's monotonic counters.
type PointStats struct {
	// Hits counts Check calls that consulted this point's policy.
	Hits int64
	// Errors counts injected errors.
	Errors int64
	// Panics counts injected panics.
	Panics int64
	// Delays counts injected latency sleeps.
	Delays int64
}

// Faults returns the number of injected faults (errors + panics).
func (s PointStats) Faults() int64 { return s.Errors + s.Panics }

// Registry maps points to policies, drawing fault decisions from one
// seeded RNG so a schedule replays deterministically (per goroutine
// arrival order; under concurrency the interleaving — not the decision
// stream — varies). A Registry is safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	rng    *rand.Rand
	points map[Point]*pointState
}

type pointState struct {
	policy Policy
	stats  PointStats
}

// NewRegistry returns an empty registry whose decisions derive from
// seed.
func NewRegistry(seed int64) *Registry {
	return &Registry{
		rng:    rand.New(rand.NewSource(seed)),
		points: make(map[Point]*pointState),
	}
}

// Set installs (or replaces) the policy of one point. It returns the
// registry for chaining.
func (r *Registry) Set(p Point, pol Policy) *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.points[p]
	if st == nil {
		st = &pointState{}
		r.points[p] = st
	}
	st.policy = pol
	return r
}

// Stats snapshots every configured point's counters.
func (r *Registry) Stats() map[Point]PointStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[Point]PointStats, len(r.points))
	for p, st := range r.points {
		out[p] = st.stats
	}
	return out
}

// TotalInjected sums injected errors + panics across all points.
func (r *Registry) TotalInjected() int64 {
	var n int64
	for _, st := range r.Stats() {
		n += st.Faults()
	}
	return n
}

// decision is what check computes under the lock and executes outside
// it (the sleep and the panic must not hold the registry mutex).
type decision struct {
	err   error
	delay time.Duration
	pv    *InjectedPanic
}

// check consults p's policy. The RNG draw order is fixed (error, panic,
// latency), so a single-goroutine schedule replays exactly from the
// seed.
func (r *Registry) check(p Point) decision {
	r.mu.Lock()
	st := r.points[p]
	if st == nil {
		r.mu.Unlock()
		return decision{}
	}
	st.stats.Hits++
	pol := &st.policy
	var d decision
	budget := pol.MaxFaults == 0 || st.stats.Faults() < pol.MaxFaults
	if pol.ErrRate > 0 && budget && r.rng.Float64() < pol.ErrRate {
		st.stats.Errors++
		d.err = &Error{Point: p, Transient: pol.Transient}
	} else if pol.PanicRate > 0 && budget && r.rng.Float64() < pol.PanicRate {
		st.stats.Panics++
		d.pv = &InjectedPanic{Point: p}
	}
	if pol.LatencyRate > 0 && r.rng.Float64() < pol.LatencyRate {
		st.stats.Delays++
		d.delay = pol.Latency
	}
	r.mu.Unlock()
	return d
}

// active is the globally armed registry; nil means injection disabled.
var active atomic.Pointer[Registry]

// Arm installs r as the active registry: every Check call consults it
// until Disarm. Arming is process-global — chaos tests arm, run, and
// disarm; production never arms.
func Arm(r *Registry) { active.Store(r) }

// Disarm removes the active registry; Check returns to the zero-cost
// path.
func Disarm() { active.Store(nil) }

// Armed returns the active registry (nil when injection is disabled);
// used by /metrics to export injection counters while a chaos run is
// live.
func Armed() *Registry { return active.Load() }

// Enabled reports whether a registry is armed.
func Enabled() bool { return active.Load() != nil }

// Check is the hot-path hook: with no registry armed it is one atomic
// load and a nil comparison. With a registry armed it may sleep
// (injected latency), return an injected *Error, or panic with an
// *InjectedPanic, per the point's policy.
func Check(p Point) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	d := r.check(p)
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.pv != nil {
		panic(d.pv)
	}
	return d.err
}
