package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/kb"
	"repro/internal/motif"
)

// cacheTestExpander builds a tiny KB with one triangular motif so
// expansions are non-empty.
// cacheLen counts the entries c's shards hold.
func cacheLen(c *ExpansionCache) int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].ll.Len()
	}
	return n
}

func cacheTestExpander(t *testing.T) (*Expander, []kb.NodeID) {
	t.Helper()
	b := kb.NewBuilder(8)
	must := func(id kb.NodeID, err error) kb.NodeID {
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	a := must(b.AddArticle("Cable car"))
	f := must(b.AddArticle("Funicular"))
	c := must(b.AddCategory("Category:Cable railways"))
	for _, err := range []error{
		b.AddMembership(a, c), b.AddMembership(f, c),
		b.AddLink(a, f), b.AddLink(f, a),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	return NewExpander(g, analysis.Standard()), []kb.NodeID{a}
}

func TestExpansionCacheHitIsBitIdentical(t *testing.T) {
	e, nodes := cacheTestExpander(t)
	c := NewExpansionCache(64)
	miss := e.BuildQueryGraphCached(nodes, motif.SetTS, c, nil)
	hit := e.BuildQueryGraphCached(nodes, motif.SetTS, c, nil)
	if !reflect.DeepEqual(miss, hit) {
		t.Fatalf("cache hit differs from miss: %+v vs %+v", miss, hit)
	}
	uncached := e.BuildQueryGraph(nodes, motif.SetTS)
	if !reflect.DeepEqual(uncached, hit) {
		t.Fatalf("cached graph differs from uncached build: %+v vs %+v", uncached, hit)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestExpansionCacheKeySeparatesSetsAndKnobs(t *testing.T) {
	e, nodes := cacheTestExpander(t)
	c := NewExpansionCache(64)
	e.BuildQueryGraphCached(nodes, motif.SetT, c, nil)
	e.BuildQueryGraphCached(nodes, motif.SetS, c, nil)
	e.BuildQueryGraphCached(nodes, motif.SetTS, c, nil)
	if st := c.Stats(); st.Misses != 3 || st.Hits != 0 {
		t.Errorf("motif sets should not share entries: %+v", st)
	}
	e.MaxFeatures = 1
	e.BuildQueryGraphCached(nodes, motif.SetTS, c, nil)
	e.UniformFeatureWeights = true
	e.BuildQueryGraphCached(nodes, motif.SetTS, c, nil)
	if st := c.Stats(); st.Misses != 5 {
		t.Errorf("expander knobs should change the key: %+v", st)
	}
}

func TestExpansionCachePermutationsShareEntry(t *testing.T) {
	e, _ := cacheTestExpander(t)
	nodes := []kb.NodeID{1, 0}
	key1 := e.ExpansionKey(nodes, motif.SetTS)
	key2 := e.ExpansionKey([]kb.NodeID{0, 1}, motif.SetTS)
	if key1 != key2 {
		t.Errorf("permuted node sets should share a key: %q vs %q", key1, key2)
	}
	// Key construction must not reorder the caller's slice.
	if nodes[0] != 1 || nodes[1] != 0 {
		t.Errorf("expansionKey mutated its input: %v", nodes)
	}
}

// TestExpansionCachePermutedHitMatchesColdMiss is the regression test
// for the canonical-storage guarantee: permutations of one entity set
// share a cache entry, yet each permutation's hit must be byte-identical
// to the cold (uncached) build for that same permutation — the hit
// rebinds the caller's query-node order while sharing the canonical
// features.
func TestExpansionCachePermutedHitMatchesColdMiss(t *testing.T) {
	b := kb.NewBuilder(8)
	must := func(id kb.NodeID, err error) kb.NodeID {
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	a := must(b.AddArticle("Cable car"))
	f := must(b.AddArticle("Funicular"))
	g := must(b.AddArticle("Gondola lift"))
	c := must(b.AddCategory("Category:Cable railways"))
	for _, err := range []error{
		b.AddMembership(a, c), b.AddMembership(f, c), b.AddMembership(g, c),
		b.AddLink(a, g), b.AddLink(g, a),
		b.AddLink(f, g), b.AddLink(g, f),
		b.AddLink(a, f), b.AddLink(f, a),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	e := NewExpander(b.Build(), analysis.Standard())
	perm1 := []kb.NodeID{a, f}
	perm2 := []kb.NodeID{f, a}
	cold1 := e.BuildQueryGraph(perm1, motif.SetTS)
	cold2 := e.BuildQueryGraph(perm2, motif.SetTS)
	if len(cold1.Features) == 0 {
		t.Fatal("fixture produced no expansion features")
	}
	cache := NewExpansionCache(16)
	miss := e.BuildQueryGraphCached(perm1, motif.SetTS, cache, nil)
	hit := e.BuildQueryGraphCached(perm2, motif.SetTS, cache, nil)
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("permutations should share one entry: %+v", st)
	}
	if !reflect.DeepEqual(miss, cold1) {
		t.Fatalf("miss differs from cold build: %+v vs %+v", miss, cold1)
	}
	if !reflect.DeepEqual(hit, cold2) {
		t.Fatalf("permuted hit differs from its own cold build: %+v vs %+v", hit, cold2)
	}
	if !reflect.DeepEqual(hit.Features, miss.Features) {
		t.Fatalf("features diverge across permutations: %+v vs %+v", hit.Features, miss.Features)
	}
}

// TestCanonicalGraph pins the storage form: unsorted nodes come back
// sorted without mutating the input graph's slices, while the feature
// slice is preserved verbatim — the builder's (|m_a| desc, article asc)
// order is already canonical, and re-sorting it would scramble graphs
// whose weights are uniform (see canonicalGraph).
func TestCanonicalGraph(t *testing.T) {
	feats := []Feature{
		{Article: 5, Weight: 1},
		{Article: 9, Weight: 4},
		{Article: 4, Weight: 4},
	}
	in := QueryGraph{
		QueryNodes: []kb.NodeID{3, 1, 2},
		Features:   feats,
	}
	got := canonicalGraph(in)
	if want := []kb.NodeID{1, 2, 3}; !reflect.DeepEqual(got.QueryNodes, want) {
		t.Fatalf("QueryNodes = %v, want %v", got.QueryNodes, want)
	}
	if &got.Features[0] != &feats[0] || !reflect.DeepEqual(got.Features, feats) {
		t.Fatalf("Features must pass through untouched: %+v", got.Features)
	}
	if in.QueryNodes[0] != 3 {
		t.Fatalf("canonicalGraph mutated its input: %+v", in)
	}
	// An already-canonical graph passes through with its slices shared.
	again := canonicalGraph(got)
	if &again.QueryNodes[0] != &got.QueryNodes[0] || &again.Features[0] != &got.Features[0] {
		t.Fatal("canonical input should not be copied")
	}
}

// TestUniformWeightsHitIsBitIdentical is the regression behind
// canonicalGraph's no-re-sort rule: under UniformFeatureWeights every
// weight is 1, so a weight-major re-sort in storage would reorder
// features and perturb downstream summation order; hit and miss must
// stay byte-identical.
func TestUniformWeightsHitIsBitIdentical(t *testing.T) {
	e, nodes := cacheTestExpander(t)
	e.UniformFeatureWeights = true
	c := NewExpansionCache(64)
	miss := e.BuildQueryGraphCached(nodes, motif.SetTS, c, nil)
	hit := e.BuildQueryGraphCached(nodes, motif.SetTS, c, nil)
	if !reflect.DeepEqual(miss, hit) {
		t.Fatalf("uniform-weight hit differs from miss: %+v vs %+v", miss, hit)
	}
	if !reflect.DeepEqual(hit, e.BuildQueryGraph(nodes, motif.SetTS)) {
		t.Fatal("uniform-weight hit differs from uncached build")
	}
}

func TestExpansionCacheEvictionBounded(t *testing.T) {
	c := NewExpansionCache(32)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("key-%d", i), QueryGraph{})
	}
	if n := cacheLen(c); n > 32 {
		t.Errorf("cache grew to %d entries, capacity 32", n)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("expected evictions after overfilling")
	}
	if st.Entries != int64(cacheLen(c)) {
		t.Errorf("Stats.Entries %d != %d entries held", st.Entries, cacheLen(c))
	}
}

func TestExpansionCacheLRUOrder(t *testing.T) {
	// A single shard (capacity rounds up to 1 per shard); use keys that
	// land in the same shard by brute force: with capacity 16 each shard
	// holds one entry, so instead test recency within one shard directly.
	c := NewExpansionCache(cacheShards * 2) // 2 per shard
	s := c.shard("x")
	var same []string
	for i := 0; len(same) < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shard(k) == s {
			same = append(same, k)
		}
	}
	c.Put(same[0], QueryGraph{})
	c.Put(same[1], QueryGraph{})
	c.Get(same[0]) // promote: same[1] is now LRU
	c.Put(same[2], QueryGraph{})
	if _, ok := c.Get(same[1]); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Get(same[0]); !ok {
		t.Error("recently used entry was evicted")
	}
}

func TestExpansionCacheConcurrent(t *testing.T) {
	e, nodes := cacheTestExpander(t)
	c := NewExpansionCache(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				set := []motif.Set{motif.SetT, motif.SetTS, motif.SetS}[i%3]
				qg := e.BuildQueryGraphCached(nodes, set, c, nil)
				if len(qg.QueryNodes) != len(nodes) {
					t.Errorf("worker %d: bad graph %+v", w, qg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Errorf("lookups %d != 1600", st.Hits+st.Misses)
	}
}

// TestExpansionKeyCoversEveryKnob is the regression test for the key
// completeness invariant: flipping ANY knob that can change what the
// expander produces — including the matcher-level ablations the key
// used to omit — must change the key, so a live cache can never serve
// an entry built under a different configuration.
func TestExpansionKeyCoversEveryKnob(t *testing.T) {
	e, nodes := cacheTestExpander(t)
	flips := []struct {
		name string
		flip func(e *Expander)
	}{
		{"MaxFeatures", func(e *Expander) { e.MaxFeatures = 7 }},
		{"UniformFeatureWeights", func(e *Expander) { e.UniformFeatureWeights = true }},
		{"TitleWindowSlack", func(e *Expander) { e.TitleWindowSlack = 2 }},
		{"Weights", func(e *Expander) { e.Weights = PartWeights{Query: 2, Entities: 1, Expansion: 1} }},
		{"RequireReciprocal", func(e *Expander) { e.Matcher().RequireReciprocal = false }},
		{"UseCategories", func(e *Expander) { e.Matcher().UseCategories = false }},
	}
	base := e.ExpansionKey(nodes, motif.SetTS)
	for _, f := range flips {
		e2 := NewExpander(e.graph, analysis.Standard())
		f.flip(e2)
		if key := e2.ExpansionKey(nodes, motif.SetTS); key == base {
			t.Errorf("flipping %s did not change the expansion key", f.name)
		}
	}
	// And through the cache: every flip must miss, never return the
	// entry a differently-configured expander stored.
	c := NewExpansionCache(64)
	e.BuildQueryGraphCached(nodes, motif.SetTS, c, nil)
	for i, f := range flips {
		e2 := NewExpander(e.graph, analysis.Standard())
		f.flip(e2)
		e2.BuildQueryGraphCached(nodes, motif.SetTS, c, nil)
		if st := c.Stats(); st.Misses != int64(2+i) || st.Hits != 0 {
			t.Fatalf("after flipping %s: stats %+v, want %d misses / 0 hits", f.name, st, 2+i)
		}
	}
	// The zero Weights value and the explicit defaults behave
	// identically, so they must share a key.
	e3 := NewExpander(e.graph, analysis.Standard())
	e3.Weights = DefaultPartWeights
	if e3.ExpansionKey(nodes, motif.SetTS) != base {
		t.Error("explicit default weights should share the zero value's key")
	}
}

// TestExpansionKeyAblationHitIsCorrect pins the end-to-end behaviour the
// old key got wrong: build through a cache, flip a matcher ablation,
// build again through the SAME cache — the second result must equal a
// fresh uncached build under the flipped configuration, not the cached
// graph from the original one.
func TestExpansionKeyAblationHitIsCorrect(t *testing.T) {
	e, nodes := cacheTestExpander(t)
	c := NewExpansionCache(64)
	withCats := e.BuildQueryGraphCached(nodes, motif.SetTS, c, nil)
	e.Matcher().UseCategories = false
	got := e.BuildQueryGraphCached(nodes, motif.SetTS, c, nil)
	want := NewExpander(e.graph, analysis.Standard()) // fresh, no cache
	want.Matcher().UseCategories = false
	if fresh := want.BuildQueryGraph(nodes, motif.SetTS); !reflect.DeepEqual(got, fresh) {
		t.Fatalf("ablation toggle served a stale cache entry: got %+v, want %+v (pre-toggle entry was %+v)",
			got, fresh, withCats)
	}
}

// TestExpansionKeyKeepsDuplicateNodes pins the satellite question "do
// [a,a,b] and [a,b] expand identically?" — they do not (the duplicated
// node's motif instances are counted per occurrence, and its title
// enters the entity part twice), so the key must keep duplicates and
// the two sets must not share a cache entry.
func TestExpansionKeyKeepsDuplicateNodes(t *testing.T) {
	e, nodes := cacheTestExpander(t)
	a := nodes[0]
	dup := []kb.NodeID{a, a}
	qgOnce := e.BuildQueryGraph(nodes, motif.SetTS)
	qgTwice := e.BuildQueryGraph(dup, motif.SetTS)
	if len(qgOnce.Features) == 0 || len(qgTwice.Features) == 0 {
		t.Fatal("fixture produced no expansion features")
	}
	if qgTwice.Features[0].Weight != 2*qgOnce.Features[0].Weight {
		t.Fatalf("duplicate query node should double |m_a|: %v vs %v",
			qgTwice.Features[0], qgOnce.Features[0])
	}
	if e.ExpansionKey(nodes, motif.SetTS) == e.ExpansionKey(dup, motif.SetTS) {
		t.Fatal("[a] and [a,a] expand differently but share an expansion key")
	}
	c := NewExpansionCache(64)
	e.BuildQueryGraphCached(nodes, motif.SetTS, c, nil)
	hit := e.BuildQueryGraphCached(dup, motif.SetTS, c, nil)
	if !reflect.DeepEqual(hit, qgTwice) {
		t.Fatalf("duplicate-node build through cache = %+v, want %+v", hit, qgTwice)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("duplicate-node set shared an entry: %+v", st)
	}
}

// TestExpansionCacheCapacityExact is the regression test for the
// per-shard rounding bug: a cache bounded to N must hold exactly N
// entries once saturated — not 16·⌈N/16⌉.
func TestExpansionCacheCapacityExact(t *testing.T) {
	for _, n := range []int{1, 10, 16, 17} {
		c := NewExpansionCache(n)
		for i := 0; i < 2000; i++ {
			c.Put(fmt.Sprintf("key-%d", i), QueryGraph{})
		}
		if got := cacheLen(c); got != n {
			t.Errorf("capacity %d: saturated cache holds %d entries", n, got)
		}
	}
}
