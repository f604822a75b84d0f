package sqe

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/motif"
)

// ablation names one expander/matcher configuration under test.
type ablation struct {
	name  string
	apply func(e *core.Expander)
}

var parityAblations = []ablation{
	{"paper-defaults", func(e *core.Expander) {}},
	{"single-link", func(e *core.Expander) { e.Matcher().RequireReciprocal = false }},
	{"no-categories", func(e *core.Expander) { e.Matcher().UseCategories = false }},
	{"uniform-capped", func(e *core.Expander) {
		e.UniformFeatureWeights = true
		e.MaxFeatures = 4
	}},
}

// demoEntitySets resolves every demo query's manual entity titles into
// node sets, the workload sqe-precompute enumerates from a query log.
func demoEntitySets(t *testing.T, env *DemoEnv) [][]NodeID {
	t.Helper()
	sets := make([][]NodeID, 0, len(env.Queries))
	for i := range env.Queries {
		q := &env.Queries[i]
		nodes, err := env.Engine.resolveEntities(q.Text, q.EntityTitles)
		if err != nil {
			t.Fatalf("query %s: %v", q.ID, err)
		}
		if len(nodes) > 0 {
			sets = append(sets, nodes)
		}
	}
	if len(sets) == 0 {
		t.Fatal("demo produced no entity sets")
	}
	return sets
}

// buildDemoStore precomputes a store file for the demo workload under
// the given ablation and reopens it through the public API.
func buildDemoStore(t *testing.T, env *DemoEnv, ab ablation) *ExpansionStore {
	t.Helper()
	// Build entries with a scratch engine so the serving engines' own
	// expanders stay untouched until the test configures them.
	scratch := NewEngine(env.Engine.Graph(), env.Engine.Index())
	ab.apply(scratch.Expander())
	entries := core.PrecomputeEntries(scratch.Expander(), demoEntitySets(t, env), []MotifSet{MotifT, MotifTS, MotifS})
	path := filepath.Join(t.TempDir(), "expansions.store")
	if err := core.WriteStoreFile(path, env.Engine.Graph().ContentHash(), entries); err != nil {
		t.Fatal(err)
	}
	st, err := OpenExpansionStore(path)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPrecomputedStoreParity: under every matcher/expander ablation a
// store built under that configuration serves, for every query and motif
// set, the expansion a live motif search returns. (That a ranking built
// on a store-served expansion is the oracle's is TestDifferential's
// precomputed rows.)
func TestPrecomputedStoreParity(t *testing.T) {
	base := theWorld(t).env
	for _, ab := range parityAblations {
		t.Run(ab.name, func(t *testing.T) {
			live := NewEngine(base.Engine.Graph(), base.Engine.Index())
			ab.apply(live.Expander())
			stored := NewEngine(base.Engine.Graph(), base.Engine.Index(), WithPrecomputedExpansions(buildDemoStore(t, base, ab)))
			ab.apply(stored.Expander())
			for _, set := range []MotifSet{MotifT, MotifTS, MotifS} {
				for _, q := range base.Queries {
					want, err := live.Expand(q.Text, q.EntityTitles, set)
					if err != nil {
						t.Fatalf("live %s set %v: %v", q.ID, set, err)
					}
					got, err := stored.Expand(q.Text, q.EntityTitles, set)
					if err != nil {
						t.Fatalf("stored %s set %v: %v", q.ID, set, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("query %s set %v: store-served expansion differs", q.ID, set)
					}
				}
			}
			// Every manual-entity query must have been served by the store
			// (the engine has no LRU in front of it).
			if st, _ := stored.ExpansionStoreStats(); st.Stale || st.Hits == 0 || st.Misses != 0 {
				t.Fatalf("parity run was not served from the store: %+v", st)
			}
		})
	}
}

// TestPrecomputedStoreConfigMismatchMisses: a store built under one
// configuration simply misses for an engine serving another — it never
// serves the wrong graphs, and parity against live expansion holds
// through the fall-through build.
func TestPrecomputedStoreConfigMismatchMisses(t *testing.T) {
	base := MustGenerateDemo(DemoSmall)
	store := buildDemoStore(t, base, parityAblations[0]) // paper defaults

	flip := parityAblations[1] // single-link: changes the key's condition bits
	live := MustGenerateDemo(DemoSmall)
	flip.apply(live.Engine.Expander())
	stored := MustGenerateDemo(DemoSmall, WithPrecomputedExpansions(store))
	flip.apply(stored.Engine.Expander())

	ctx := context.Background()
	q := &base.Queries[0]
	req := SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifTS, K: 20}
	want, err := live.Engine.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stored.Engine.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Results, got.Results) {
		t.Fatal("fall-through build differs from live expansion")
	}
	st, _ := stored.Engine.ExpansionStoreStats()
	if st.Hits != 0 || st.Misses == 0 {
		t.Fatalf("default-config store must miss under flipped ablation: %+v", st)
	}
}

// TestPrecomputedStoreStaleKBDropped: a store whose recorded KB hash
// does not match the serving graph is dropped at construction — the
// engine serves live expansions (parity with a plain engine) and
// surfaces the staleness through ExpansionStoreStats.
func TestPrecomputedStoreStaleKBDropped(t *testing.T) {
	base := MustGenerateDemo(DemoSmall)
	entries := core.PrecomputeEntries(base.Engine.Expander(), demoEntitySets(t, base), []MotifSet{MotifTS})
	path := filepath.Join(t.TempDir(), "stale.store")
	wrongHash := base.Engine.Graph().ContentHash() + 1
	if err := core.WriteStoreFile(path, wrongHash, entries); err != nil {
		t.Fatal(err)
	}
	store, err := OpenExpansionStore(path)
	if err != nil {
		t.Fatal(err)
	}

	stored := MustGenerateDemo(DemoSmall, WithPrecomputedExpansions(store))
	st, ok := stored.Engine.ExpansionStoreStats()
	if !ok || !st.Stale {
		t.Fatalf("stale store should be reported: %+v ok=%v", st, ok)
	}
	if st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("dropped store must report zero counters: %+v", st)
	}

	live := MustGenerateDemo(DemoSmall)
	ctx := context.Background()
	q := &base.Queries[0]
	req := SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 20}
	want, err := live.Engine.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stored.Engine.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Results, got.Results) {
		t.Fatal("engine with dropped store differs from plain engine")
	}
}

// TestPrecomputedStoreWarmsCache: with both tiers configured, boot
// warming copies store entries into the LRU so the first request is
// already a cache hit (the store itself is only consulted for keys the
// cache has dropped).
func TestPrecomputedStoreWarmsCache(t *testing.T) {
	base := MustGenerateDemo(DemoSmall)
	store := buildDemoStore(t, base, parityAblations[0])

	eng := NewEngine(base.Engine.Graph(), base.Engine.Index(),
		WithExpansionCache(4096),
		WithPrecomputedExpansions(store))
	if cs, ok := eng.ExpansionCacheStats(); !ok || cs.Entries != int64(store.Len()) {
		t.Fatalf("cache not warmed from store: %+v (store has %d)", cs, store.Len())
	}

	nodes := demoEntitySets(t, base)[0]
	_ = eng.Expander() // configuration untouched: keys match the store's
	qg := eng.Expander().BuildQueryGraphStored(nodes, motif.SetTS, eng.cache, eng.precomputed)
	if len(qg.QueryNodes) == 0 {
		t.Fatal("warmed lookup returned empty graph")
	}
	cs, _ := eng.ExpansionCacheStats()
	st, _ := eng.ExpansionStoreStats()
	if cs.Hits != 1 || st.Hits != 0 {
		t.Fatalf("first request should hit the warmed cache, not the store: cache %+v store %+v", cs, st)
	}
}
