package sqe

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/search"
)

// backfillShapes are the diffRows rows TestBackfillPage runs on. In
// segmented-mixed a request drops S in some segments and keeps it in
// others; in segmented-duplicated T&S can hold K documents but fewer
// names.
var backfillShapes = []string{"memory", "v2", "shards-2", "segmented-mixed", "segmented-duplicated", "rpc-2"}

// sqecTrees builds q's three SQE_C trees the way Do does.
func sqecTrees(t *testing.T, e *Engine, q DemoQuery) []search.Node {
	t.Helper()
	ctx := context.Background()
	nodes, err := e.resolveEntities(q.Text, q.EntityTitles)
	if err != nil {
		t.Fatal(err)
	}
	trees := make([]search.Node, len(sqecSets))
	for i, set := range sqecSets {
		qg, err := e.expand(ctx, nodes, set, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = e.expander.BuildQuery(q.Text, qg)
	}
	return trees
}

// TestBackfillPage holds what the oracle cannot see of Do's SQE_C
// page, which evaluates S as a backfill tree (search.EvalOptions.Backfill):
// on every engine shape, an evaluation with the backfill mark ranks T
// and T&S as the full evaluation does, and S either as it does or not at
// all, beside K documents of T&S; and the shape exercises the paths it
// is there for — S dropped, S kept because T&S ranks fewer than K
// documents, and (only where documents share names) Do evaluating
// again. A shard server ranks every frame, so the rpc shape never
// drops. That the page equals the oracle's is TestDifferential's, on
// the same rows.
func TestBackfillPage(t *testing.T) {
	w := theWorld(t)
	ctx := context.Background()
	for _, name := range backfillShapes {
		t.Run(name, func(t *testing.T) {
			eng, _ := diffRow(t, name)(t, w)
			var dropped, kept, short, again int
			for _, q := range w.env.Queries[:8] {
				trees := sqecTrees(t, eng, q)
				for _, k := range []int{1, 10, 200} {
					full, err := eng.dist.Evaluate(ctx, trees, k, search.EvalOptions{})
					if err != nil {
						t.Fatal(err)
					}
					resp, err := eng.Do(ctx, SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: k, CollectStats: true})
					if err != nil {
						t.Fatal(err)
					}
					if resp.Stats.Retrievals > 1 {
						again++
					}
					ev, err := eng.dist.Evaluate(ctx, trees, k, search.EvalOptions{Backfill: true})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ev.Results[:2], full.Results[:2]) {
						t.Fatalf("%s k=%d: a backfill evaluation moved T or T&S", q.ID, k)
					}
					switch {
					case ev.BackfillDropped:
						dropped++
						if ev.Results[2] != nil || len(ev.Results[1]) != k {
							t.Fatalf("%s k=%d: S dropped with %d S results beside %d T&S ones", q.ID, k, len(ev.Results[2]), len(ev.Results[1]))
						}
					case !reflect.DeepEqual(ev.Results[2], full.Results[2]):
						t.Fatalf("%s k=%d: S kept but ranked differently", q.ID, k)
					default:
						kept++
						if len(full.Results[1]) < k {
							short++
						}
					}
				}
			}
			t.Logf("S dropped %d times, kept %d (T&S short %d); Do evaluated again %d times", dropped, kept, short, again)
			if name == "rpc-2" {
				if dropped > 0 {
					t.Errorf("a shard server dropped S %d times", dropped)
				}
				return
			}
			if dropped == 0 || short == 0 {
				t.Errorf("the shape did not exercise both paths: S dropped %d times, T&S short %d times", dropped, short)
			}
			if (again > 0) != (name == "segmented-duplicated") {
				t.Errorf("Do evaluated a request again %d times", again)
			}
		})
	}
}

// TestSQECRequestAllocations caps what a warm SQE_C Engine.Do allocates:
// the expansion memo hits, every title leaf is cached on its article,
// the user's query is analysed once, and the evaluation runs on pooled
// scratch, so what remains is the request's own trees, their flatten
// and the splice: 53–57 allocations on these queries.
func TestSQECRequestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratches at random")
	}
	env := demo(t)
	eng := NewEngine(env.Engine.Graph(), env.Engine.Index(), WithExpansionCache(4096))
	ctx := context.Background()
	for _, q := range env.Queries[:8] {
		req := SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10}
		if _, err := eng.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if resp, err := eng.Do(ctx, req); err != nil || len(resp.Results) == 0 {
				t.Fatalf("%s: no results (%v)", q.ID, err)
			}
		})
		if allocs > 80 {
			t.Errorf("%s: a warm SQE_C request allocates %.0f times, want <= 80", q.ID, allocs)
		}
	}
}
