// Chaos harness: arms the fault registry against a real engine (the
// demo environment, sharded and cached, with graceful degradation on)
// and checks the degradation contract end to end — no hangs, no panic
// escapes, well-formed partial responses, and bit-identical results
// once the registry is disarmed. Run under -race (`make chaos`).
package fault_test

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	sqe "repro"
	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/rpc"
	"repro/internal/search"
)

func demoEnv(t *testing.T, opts ...sqe.Option) *sqe.DemoEnv {
	t.Helper()
	env, err := sqe.GenerateDemo(sqe.DemoSmall, opts...)
	if err != nil {
		t.Fatalf("GenerateDemo: %v", err)
	}
	return env
}

// remoteEngine builds a second engine over env's corpus whose retrieval
// fans out over real RPC to in-process shard servers on loopback, so the
// rpc.client_call and rpc.server_handle fault points sit on the request
// path. Queries in the chaos mix carry explicit entity titles, so the
// engine needs no linker.
func remoteEngine(t *testing.T, env *sqe.DemoEnv, shards int, pol sqe.DegradationPolicy) *sqe.Engine {
	t.Helper()
	sh := index.NewSharded(env.Engine.Index(), shards)
	groups := make([]*rpc.Group, sh.NumShards())
	for i := range groups {
		srv := rpc.NewServer()
		search.NewShardService(sh.Shard(i), i, sh.NumShards()).Register(srv)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		// Client-level retries stay off: the degradation layer owns
		// retries, the same wiring the coordinator binary uses.
		c := rpc.NewClient(ln.Addr().String(), rpc.ClientOptions{MaxRetries: -1})
		t.Cleanup(func() { c.Close() })
		groups[i] = rpc.NewGroup([]*rpc.Client{c}, rpc.GroupOptions{})
	}
	rs, err := search.NewRemoteSharded(context.Background(), groups)
	if err != nil {
		t.Fatalf("NewRemoteSharded: %v", err)
	}
	return sqe.NewEngine(env.Engine.Graph(), env.Engine.Index(),
		sqe.WithDistributedSearcher(rs), sqe.WithDegradation(pol))
}

// chaosRequests builds a request mix over the demo queries: the full
// SQE_C combination, a single-set run, and the QL baseline.
func chaosRequests(env *sqe.DemoEnv) []sqe.SearchRequest {
	var reqs []sqe.SearchRequest
	for i, q := range env.Queries {
		if i >= 3 {
			break
		}
		reqs = append(reqs,
			sqe.SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10},
			sqe.SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 5, MotifSet: sqe.MotifTS},
			sqe.SearchRequest{Query: q.Text, K: 10, Baseline: true},
		)
	}
	return reqs
}

// TestChaosEngineUnderRandomFaults is the main harness: seeded random
// fault policies at every registered point, hammered concurrently. Any
// hang (watchdog), escaped panic (crashes the test binary), or
// malformed response fails; after Disarm, results must be bit-identical
// to the pre-chaos baseline.
func TestChaosEngineUnderRandomFaults(t *testing.T) {
	defer fault.Disarm()
	env := demoEnv(t, sqe.WithShards(4), sqe.WithExpansionCache(256),
		sqe.WithDegradation(sqe.DefaultDegradation()))
	// A second engine over the same corpus retrieves through real RPC
	// shard servers, putting the rpc.* fault points on the request path;
	// the distributed parity contract says both engines answer every
	// request bit-identically.
	engines := []*sqe.Engine{env.Engine, remoteEngine(t, env, 2, sqe.DefaultDegradation())}
	reqs := chaosRequests(env)
	ctx := context.Background()

	fault.Disarm()
	base := make([]*sqe.SearchResponse, len(reqs))
	for i, r := range reqs {
		for ei, eng := range engines {
			resp, err := eng.Do(ctx, r)
			if err != nil {
				t.Fatalf("baseline request %d (engine %d): %v", i, ei, err)
			}
			if resp.Degraded != nil {
				t.Fatalf("baseline request %d (engine %d) degraded with no registry armed: %+v", i, ei, resp.Degraded)
			}
			if ei == 0 {
				base[i] = resp
			} else if !reflect.DeepEqual(resp.Results, base[i].Results) {
				t.Fatalf("baseline request %d: distributed results diverge from in-process", i)
			}
		}
	}

	reg := fault.NewRegistry(7)
	for _, p := range fault.Points() {
		pol := fault.Policy{ErrRate: 0.03, Transient: true, LatencyRate: 0.02, Latency: 100 * time.Microsecond}
		switch p {
		case fault.ShardEval:
			pol.ErrRate, pol.PanicRate = 0.2, 0.05
		case fault.MotifExpand:
			pol.ErrRate, pol.Transient = 0.3, false
		case fault.ExpansionCache:
			pol.ErrRate = 0.5
		}
		reg.Set(p, pol)
	}
	fault.Arm(reg)

	const workers, iters = 8, 25
	done := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < iters; i++ {
				req := reqs[(w+i)%len(reqs)]
				resp, err := engines[(w+i)%len(engines)].Do(ctx, req)
				if err != nil {
					continue // failing is allowed under chaos; hanging and panicking are not
				}
				if len(resp.Results) > req.K {
					done <- fmt.Errorf("worker %d: %d results for k=%d", w, len(resp.Results), req.K)
					return
				}
				if resp.Degraded == nil && len(resp.Results) == 0 {
					done <- fmt.Errorf("worker %d: empty non-degraded results", w)
					return
				}
			}
			done <- nil
		}(w)
	}
	// One mutation worker drives a throwaway live index through its full
	// lifecycle so the segment.* fault points sit on an exercised path.
	// A faulted mutation must surface as an injected error and leave the
	// index consistent (the root index-while-chaos harness checks the
	// stronger bit-identity contract; here the chaos mix just has to
	// reach the hooks without hanging or corrupting state).
	live, err := index.OpenSegmented(t.TempDir(), env.Engine.Index().Analyzer(), index.WithFlushDocs(8))
	if err != nil {
		t.Fatalf("OpenSegmented: %v", err)
	}
	defer live.Close()
	go func() {
		for i := 0; i < 4*iters; i++ {
			var err error
			switch {
			case i%10 == 9:
				err = live.Compact()
			case i%7 == 6:
				_, err = live.Delete(fmt.Sprintf("L%03d", i-3))
			default:
				err = live.Ingest(fmt.Sprintf("L%03d", i), "alpha beta gamma delta")
			}
			if err != nil && !fault.IsInjected(err) {
				done <- fmt.Errorf("live mutation %d: non-injected error %v", i, err)
				return
			}
		}
		st := live.Stats()
		if st.LiveDocs > int(st.Ingested) || st.Gen == 0 {
			done <- fmt.Errorf("live index inconsistent after chaos: %+v", st)
			return
		}
		done <- nil
	}()
	watchdog := time.After(2 * time.Minute)
	for w := 0; w < workers+1; w++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-watchdog:
			t.Fatal("chaos hammer hung: workers did not finish within 2m")
		}
	}

	if reg.TotalInjected() == 0 {
		t.Fatal("registry injected nothing; the chaos run exercised no fault paths")
	}
	stats := reg.Stats()
	for _, p := range fault.Points() {
		if stats[p].Hits == 0 {
			t.Errorf("point %s was never consulted — its hook is unreachable from the request mix", p)
		}
	}

	fault.Disarm()
	for i, r := range reqs {
		for ei, eng := range engines {
			resp, err := eng.Do(ctx, r)
			if err != nil {
				t.Fatalf("post-disarm request %d (engine %d): %v", i, ei, err)
			}
			if resp.Degraded != nil {
				t.Fatalf("post-disarm request %d (engine %d) still degraded: %+v", i, ei, resp.Degraded)
			}
			if !reflect.DeepEqual(resp.Results, base[i].Results) {
				t.Fatalf("post-disarm request %d (engine %d): results differ from the pre-chaos baseline", i, ei)
			}
		}
	}
}

// TestChaosShardDropIsExactSubset fails exactly one shard under the
// zero policy (degrade, no retries), so the single fault is exactly one
// degradation event, and checks the partial merge: one dropped shard
// reported, and every surviving result carries a score bit-identical to
// the full ranking's — partial merges happen after the cross-shard
// statistics override.
func TestChaosShardDropIsExactSubset(t *testing.T) {
	defer fault.Disarm()
	env := demoEnv(t, sqe.WithShards(4), sqe.WithDegradation(sqe.DegradationPolicy{}))
	q := env.Queries[0]
	ctx := context.Background()

	full, err := env.Engine.Do(ctx, sqe.SearchRequest{Query: q.Text, K: 500, Baseline: true})
	if err != nil {
		t.Fatalf("full baseline: %v", err)
	}
	scores := make(map[string]float64, len(full.Results))
	for _, r := range full.Results {
		scores[r.Name] = r.Score
	}

	fault.Arm(fault.NewRegistry(3).Set(fault.ShardEval, fault.Policy{ErrRate: 1, MaxFaults: 1}))
	resp, err := env.Engine.Do(ctx, sqe.SearchRequest{Query: q.Text, K: 20, Baseline: true})
	if err != nil {
		t.Fatalf("degraded request failed outright: %v", err)
	}
	d := resp.Degraded
	if d == nil || len(d.DroppedShards) != 1 || len(d.ShardErrors) != 1 {
		t.Fatalf("Degraded = %+v, want exactly one dropped shard with its error", d)
	}
	if !d.Degraded() {
		t.Fatal("Degraded() false despite a dropped shard")
	}
	if d.Retries != 0 {
		t.Fatalf("Retries = %d with MaxRetries=0", d.Retries)
	}
	if len(resp.Results) == 0 {
		t.Fatal("partial merge produced no results")
	}
	for _, r := range resp.Results {
		want, ok := scores[r.Name]
		if !ok {
			t.Fatalf("degraded result %q absent from the full ranking", r.Name)
		}
		if r.Score != want {
			t.Fatalf("degraded score for %q = %v, want bit-identical %v", r.Name, r.Score, want)
		}
	}
}

// TestNegativeMaxRetriesStillRuns: a negative retry budget means no
// retries, not no attempt — every request still runs every stage once
// and answers exactly what the engine without degradation answers, on a
// single index and on a sharded engine.
func TestNegativeMaxRetriesStillRuns(t *testing.T) {
	env := demoEnv(t)
	ctx := context.Background()
	for _, shards := range []int{1, 2} {
		eng := sqe.NewEngine(env.Engine.Graph(), env.Engine.Index(), sqe.WithShards(shards),
			sqe.WithDegradation(sqe.DegradationPolicy{MaxRetries: -1}))
		for i, req := range chaosRequests(env) {
			want, err := env.Engine.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Do(ctx, req)
			if err != nil {
				t.Fatalf("shards=%d request %d: %v", shards, i, err)
			}
			if len(got.Results) == 0 || !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("shards=%d request %d: %d results, want the plain engine's %d", shards, i, len(got.Results), len(want.Results))
			}
		}
	}
}

// TestChaosTransientRetryRestoresExactResults fails one shard with a
// transient fault under MaxRetries=2: the retry must succeed, results
// must match the fault-free run exactly, and the response must report
// the retry without claiming degradation. An unsharded engine's index is
// its one shard and is retried the same way.
func TestChaosTransientRetryRestoresExactResults(t *testing.T) {
	defer fault.Disarm()
	pol := sqe.DegradationPolicy{MaxRetries: 2, RetryBackoff: time.Millisecond}
	for _, shards := range []int{1, 4} {
		fault.Disarm()
		env := demoEnv(t, sqe.WithShards(shards), sqe.WithDegradation(pol))
		q := env.Queries[0]
		ctx := context.Background()
		req := sqe.SearchRequest{Query: q.Text, K: 20, Baseline: true}

		clean, err := env.Engine.Do(ctx, req)
		if err != nil {
			t.Fatalf("shards=%d: clean run: %v", shards, err)
		}

		fault.Arm(fault.NewRegistry(5).Set(fault.ShardEval,
			fault.Policy{ErrRate: 1, Transient: true, MaxFaults: 1}))
		resp, err := env.Engine.Do(ctx, req)
		if err != nil {
			t.Fatalf("shards=%d: request failed despite retry budget: %v", shards, err)
		}
		if resp.Degraded == nil || resp.Degraded.Retries == 0 {
			t.Fatalf("shards=%d: Degraded = %+v, want a recorded retry", shards, resp.Degraded)
		}
		if resp.Degraded.Degraded() {
			t.Fatalf("shards=%d: retry-only response claims degradation: %+v", shards, resp.Degraded)
		}
		if !reflect.DeepEqual(resp.Results, clean.Results) {
			t.Fatalf("shards=%d: results after a successful retry differ from the fault-free run", shards)
		}
	}
}

// TestChaosExpansionFallback fails every motif expansion: the request
// must degrade to the plain unexpanded query — same results as the QL
// baseline, no Expansion, fallback counted.
func TestChaosExpansionFallback(t *testing.T) {
	defer fault.Disarm()
	env := demoEnv(t, sqe.WithDegradation(sqe.DegradationPolicy{}))
	q := env.Queries[0]
	ctx := context.Background()

	baseline, err := env.Engine.Do(ctx, sqe.SearchRequest{Query: q.Text, K: 10, Baseline: true})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	fault.Arm(fault.NewRegistry(11).Set(fault.MotifExpand, fault.Policy{ErrRate: 1}))
	resp, err := env.Engine.Do(ctx, sqe.SearchRequest{
		Query: q.Text, EntityTitles: q.EntityTitles, K: 10, MotifSet: sqe.MotifTS,
	})
	if err != nil {
		t.Fatalf("request failed instead of falling back: %v", err)
	}
	if resp.Degraded == nil || resp.Degraded.ExpansionFallbacks != 1 {
		t.Fatalf("Degraded = %+v, want one expansion fallback", resp.Degraded)
	}
	if resp.Expansion != nil {
		t.Fatal("fallback response still carries an Expansion")
	}
	if !reflect.DeepEqual(resp.Results, baseline.Results) {
		t.Fatal("fallback results differ from the plain QL baseline")
	}
}

// TestChaosSQECRetryBudgetPerRun: each SQE_C run's expansion gets the
// policy's retry budget once. Under a persistent transient expansion
// fault every run tries twice (one retry), then falls back to the
// unexpanded query — so the request ranks like the QL baseline and
// reports three fallbacks, three retries and six expansion attempts.
func TestChaosSQECRetryBudgetPerRun(t *testing.T) {
	defer fault.Disarm()
	env := demoEnv(t, sqe.WithDegradation(sqe.DegradationPolicy{MaxRetries: 1, RetryBackoff: time.Millisecond}))
	q := env.Queries[0]
	ctx := context.Background()

	baseline, err := env.Engine.Do(ctx, sqe.SearchRequest{Query: q.Text, K: 10, Baseline: true})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	reg := fault.NewRegistry(13).Set(fault.MotifExpand, fault.Policy{ErrRate: 1, Transient: true})
	fault.Arm(reg)
	resp, err := env.Engine.Do(ctx, sqe.SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10})
	fault.Disarm()
	if err != nil {
		t.Fatalf("SQE_C failed instead of falling back: %v", err)
	}
	if d := resp.Degraded; d == nil || d.ExpansionFallbacks != 3 || d.Retries != 3 {
		t.Fatalf("Degraded = %+v, want 3 expansion fallbacks and 3 retries", d)
	}
	if hits := reg.Stats()[fault.MotifExpand].Hits; hits != 6 {
		t.Fatalf("the expansion was tried %d times, want 6 (2 per run)", hits)
	}
	if resp.Expansion != nil {
		t.Fatal("fallback response still carries an Expansion")
	}
	if !reflect.DeepEqual(resp.Results, baseline.Results) {
		t.Fatal("three fallen-back runs spliced differ from the plain QL baseline")
	}
}

// TestChaosSharedSQECEvalIsAllOrNothing: on a single index SQE_C's three
// runs share one evaluation, so a fault inside it is one event for the
// request — retried into the full, exact splice when transient, the
// request's error otherwise — and never a splice of whichever runs
// happened to survive.
func TestChaosSharedSQECEvalIsAllOrNothing(t *testing.T) {
	defer fault.Disarm()
	env := demoEnv(t, sqe.WithDegradation(sqe.DegradationPolicy{MaxRetries: 1}))
	q := env.Queries[0]
	ctx := context.Background()
	req := sqe.SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10}
	clean, err := env.Engine.Do(ctx, req)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	fault.Arm(fault.NewRegistry(29).Set(fault.IndexPostings, fault.Policy{ErrRate: 1, Transient: true, MaxFaults: 1}))
	resp, err := env.Engine.Do(ctx, req)
	fault.Disarm()
	if err != nil {
		t.Fatalf("a transient evaluation fault failed the request instead of retrying: %v", err)
	}
	if d := resp.Degraded; d == nil || d.Retries != 1 || d.Degraded() {
		t.Fatalf("Degraded = %+v, want one retry and nothing dropped", d)
	}
	if !reflect.DeepEqual(resp.Results, clean.Results) {
		t.Fatal("the retried splice differs from the clean one")
	}

	fault.Arm(fault.NewRegistry(31).Set(fault.IndexPostings, fault.Policy{ErrRate: 1}))
	resp, err = env.Engine.Do(ctx, req)
	if err == nil {
		t.Fatalf("a persistent evaluation fault returned %+v, want an error", resp)
	}
	if !fault.IsInjected(err) {
		t.Fatalf("error %v is not the injected fault", err)
	}
}

// TestChaosPRFFeedbackFaultFailsRequest: a fault in PRF's feedback
// retrieval is the request's error. A swallowed one would let the
// request rank without feedback, with no error and no degradation
// marker to say so.
func TestChaosPRFFeedbackFaultFailsRequest(t *testing.T) {
	defer fault.Disarm()
	env := demoEnv(t)
	q := env.Queries[0]
	ctx := context.Background()
	req := sqe.SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10, MotifSet: sqe.MotifTS, PRF: &sqe.PRFConfig{}}
	for _, r := range []sqe.SearchRequest{req, {Query: q.Text, K: 10, Baseline: true, PRF: &sqe.PRFConfig{}}} {
		fault.Arm(fault.NewRegistry(37).Set(fault.IndexPostings, fault.Policy{ErrRate: 1, MaxFaults: 1}))
		resp, err := env.Engine.Do(ctx, r)
		fault.Disarm()
		if err == nil {
			t.Fatalf("baseline=%v: a feedback fault returned %d results (Degraded %+v), want the fault", r.Baseline, len(resp.Results), resp.Degraded)
		}
		if !fault.IsInjected(err) {
			t.Fatalf("baseline=%v: error %v is not the injected fault", r.Baseline, err)
		}
		if _, err := env.Engine.Do(ctx, r); err != nil {
			t.Fatalf("baseline=%v: disarmed: %v", r.Baseline, err)
		}
	}
}

// TestChaosCacheFaultIsHarmless fails every expansion-cache access: the
// cache must degrade to misses/skips — identical results, no error, and
// no degradation marker (a cold cache is not a degraded response).
func TestChaosCacheFaultIsHarmless(t *testing.T) {
	defer fault.Disarm()
	env := demoEnv(t, sqe.WithExpansionCache(256), sqe.WithDegradation(sqe.DegradationPolicy{}))
	q := env.Queries[0]
	ctx := context.Background()
	req := sqe.SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10, MotifSet: sqe.MotifTS}

	clean, err := env.Engine.Do(ctx, req)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	fault.Arm(fault.NewRegistry(17).Set(fault.ExpansionCache, fault.Policy{ErrRate: 1}))
	for i := 0; i < 2; i++ {
		resp, err := env.Engine.Do(ctx, req)
		if err != nil {
			t.Fatalf("run %d: cache fault failed the request: %v", i, err)
		}
		if resp.Degraded != nil {
			t.Fatalf("run %d: cache fault marked the response degraded: %+v", i, resp.Degraded)
		}
		if !reflect.DeepEqual(resp.Results, clean.Results) {
			t.Fatalf("run %d: results differ under cache faults", i)
		}
	}
}

// TestChaosPanicContained injects panics (not errors) at the guarded
// stages and checks they degrade like any other failure instead of
// escaping: a panicking shard is dropped, a panicking expansion falls
// back — in an SQE_C request, that one run's.
func TestChaosPanicContained(t *testing.T) {
	defer fault.Disarm()
	ctx := context.Background()
	cases := []struct {
		name  string
		point fault.Point
		opts  []sqe.Option
		req   func(q sqe.DemoQuery) sqe.SearchRequest
		check func(t *testing.T, resp *sqe.SearchResponse)
	}{
		{
			"shard", fault.ShardEval,
			[]sqe.Option{sqe.WithShards(4), sqe.WithDegradation(sqe.DegradationPolicy{})},
			func(q sqe.DemoQuery) sqe.SearchRequest {
				return sqe.SearchRequest{Query: q.Text, K: 10, Baseline: true}
			},
			func(t *testing.T, resp *sqe.SearchResponse) {
				if resp.Degraded == nil || len(resp.Degraded.DroppedShards) != 1 {
					t.Fatalf("Degraded = %+v, want one dropped shard", resp.Degraded)
				}
			},
		},
		{
			"expansion", fault.MotifExpand,
			[]sqe.Option{sqe.WithDegradation(sqe.DegradationPolicy{})},
			func(q sqe.DemoQuery) sqe.SearchRequest {
				return sqe.SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10, MotifSet: sqe.MotifT}
			},
			func(t *testing.T, resp *sqe.SearchResponse) {
				if resp.Degraded == nil || resp.Degraded.ExpansionFallbacks == 0 {
					t.Fatalf("Degraded = %+v, want an expansion fallback", resp.Degraded)
				}
			},
		},
		{
			"sqec run", fault.MotifExpand,
			[]sqe.Option{sqe.WithDegradation(sqe.DegradationPolicy{})},
			func(q sqe.DemoQuery) sqe.SearchRequest {
				return sqe.SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10}
			},
			func(t *testing.T, resp *sqe.SearchResponse) {
				if resp.Degraded == nil || resp.Degraded.ExpansionFallbacks != 1 {
					t.Fatalf("Degraded = %+v, want one run's expansion fallback", resp.Degraded)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer fault.Disarm()
			env := demoEnv(t, c.opts...)
			fault.Arm(fault.NewRegistry(19).Set(c.point, fault.Policy{PanicRate: 1, MaxFaults: 1}))
			resp, err := env.Engine.Do(ctx, c.req(env.Queries[0]))
			if err != nil {
				t.Fatalf("injected panic failed the request instead of degrading: %v", err)
			}
			if len(resp.Results) == 0 {
				t.Fatal("degraded response has no results")
			}
			c.check(t, resp)
		})
	}
}

// TestChaosAllShardsFailedIsAnError checks the never-silent rule: when
// every shard fails there is nothing to merge, and the request must
// fail with the underlying injected error — not return an empty 200.
func TestChaosAllShardsFailedIsAnError(t *testing.T) {
	defer fault.Disarm()
	env := demoEnv(t, sqe.WithShards(4), sqe.WithDegradation(sqe.DegradationPolicy{}))
	q := env.Queries[0]

	fault.Arm(fault.NewRegistry(23).Set(fault.ShardEval, fault.Policy{ErrRate: 1}))
	resp, err := env.Engine.Do(context.Background(), sqe.SearchRequest{Query: q.Text, K: 10, Baseline: true})
	if err == nil {
		t.Fatalf("all shards failing returned %+v, want an error", resp)
	}
	if !fault.IsInjected(err) {
		t.Fatalf("error %v does not unwrap to the injected fault", err)
	}
}

// TestChaosCancelledContextIsNotDegraded checks that parent-context
// cancellation always wins over degradation: a cancelled request fails
// with the context error instead of returning a partial response.
func TestChaosCancelledContextIsNotDegraded(t *testing.T) {
	defer fault.Disarm()
	env := demoEnv(t, sqe.WithShards(4), sqe.WithDegradation(sqe.DefaultDegradation()))
	q := env.Queries[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	fault.Arm(fault.NewRegistry(29).Set(fault.ShardEval, fault.Policy{ErrRate: 1}))
	if _, err := env.Engine.Do(ctx, sqe.SearchRequest{Query: q.Text, K: 10, Baseline: true}); err == nil {
		t.Fatal("cancelled request degraded into a response, want the context error")
	}
}
