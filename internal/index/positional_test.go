package index

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
)

// positionalKey is one leaf the tests resolve: an exact phrase when
// window is 0, a #uw<window> otherwise.
type positionalKey struct {
	terms  []string
	window int
}

func (k positionalKey) String() string { return fmt.Sprintf("%v/%d", k.terms, k.window) }

// reference is the position-materialising path the memo is proven
// against.
func (k positionalKey) reference(ix *Index) Postings {
	if k.window == 0 {
		return ix.PhrasePostings(k.terms)
	}
	return ix.UnorderedWindowPostings(k.terms, k.window)
}

func (k positionalKey) leaf(ix *Index, sc *PositionalScratch) (*Positional, bool) {
	if k.window == 0 {
		return ix.PhraseLeaf(k.terms, sc)
	}
	return ix.WindowLeaf(k.terms, k.window, sc)
}

// positionalKeys draws phrases and windows over segCorpus's vocabulary:
// arities 1–4, repeated constituents, an out-of-vocabulary term now and
// then, and windows from below the arity (never matches) upwards.
func positionalKeys(rng *rand.Rand, n int) []positionalKey {
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "zz", "oov"}
	keys := []positionalKey{
		{terms: []string{"a", "a"}}, {terms: []string{"a", "a"}, window: 2},
		{terms: []string{"oov", "a"}}, {terms: []string{"b"}}, {terms: []string{"b"}, window: 1},
	}
	for len(keys) < n {
		terms := make([]string, 1+rng.Intn(4))
		for i := range terms {
			terms[i] = vocab[rng.Intn(len(vocab))]
		}
		k := positionalKey{terms: terms}
		if rng.Intn(2) == 0 {
			k.window = len(terms) - 1 + rng.Intn(6)
			if k.window == 0 {
				k.window = 12
			}
		}
		keys = append(keys, k)
	}
	return keys
}

// requireMatchesReference checks one memo entry against the reference
// postings: rows, collection frequency and the bound summary.
func requireMatchesReference(t *testing.T, label string, ix *Index, got *Positional, want Postings) {
	t.Helper()
	if len(got.Docs) != len(want.Docs) || len(got.Freqs) != len(want.Freqs) {
		t.Fatalf("%s: %d docs / %d freqs, reference %d / %d", label, len(got.Docs), len(got.Freqs), len(want.Docs), len(want.Freqs))
	}
	for i := range want.Docs {
		if got.Docs[i] != want.Docs[i] || got.Freqs[i] != want.Freqs[i] {
			t.Fatalf("%s: row %d is (%d, %d), reference (%d, %d)", label, i, got.Docs[i], got.Freqs[i], want.Docs[i], want.Freqs[i])
		}
	}
	if cf := want.CollectionFreq(); got.CF != cf {
		t.Fatalf("%s: cf %d, reference %d", label, got.CF, cf)
	}
	if b := ix.PostingsBounds(&want); got.Bounds != b {
		t.Fatalf("%s: bounds %+v, reference %+v", label, got.Bounds, b)
	}
}

// cached returns the memo's charged total and checks the ledger against
// the entries actually held.
func (m *positionalMemo) cached(t *testing.T) int {
	t.Helper()
	m.mu.RLock()
	defer m.mu.RUnlock()
	for gen, held := range map[string]struct {
		entries map[string]*Positional
		cost    int
	}{"young": {m.cur, m.curCost}, "old": {m.old, m.oldCost}} {
		sum := 0
		for _, e := range held.entries {
			sum += e.cost
			if e.cost > m.budgetOf()/8 {
				t.Errorf("an entry of %d postings is cached, over an eighth of the budget of %d", e.cost, m.budgetOf())
			}
		}
		if sum != held.cost {
			t.Errorf("%s generation is charged %d, its entries add up to %d", gen, held.cost, sum)
		}
		if held.cost > m.budgetOf()/2 {
			t.Errorf("%s generation holds %d, over half the budget of %d", gen, held.cost, m.budgetOf())
		}
	}
	return m.curCost + m.oldCost
}

// positionalIndexes builds every kind of index a positional leaf is
// resolved against, over one seeded corpus: in memory, from an mmap'd
// v2 file, the two shards of NewSharded, and the segments
// of a live index — a flushed one plus the sealed ingest buffer. Small
// blocks, so the block summaries have several rows.
func positionalIndexes(t *testing.T, seed int) map[string]*Index {
	t.Helper()
	docs := segCorpus(120+40*seed, seed)
	build := func() *Index {
		ix := monolithic(docs)
		if err := ix.SetBlockSize(4); err != nil {
			t.Fatal(err)
		}
		return ix
	}
	out := map[string]*Index{"memory": build()}
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := WriteFile(path, build(), FormatV2); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v2.Close() })
	out["v2"] = v2
	sh := NewSharded(build(), 2)
	for i := 0; i < sh.NumShards(); i++ {
		out[fmt.Sprintf("shard%d", i)] = sh.Shard(i)
	}
	seg, err := OpenSegmented(t.TempDir(), analysis.Analyzer{}, WithFlushDocs(len(docs)*2/3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	for _, d := range docs {
		if err := seg.Ingest(d.name, d.text); err != nil {
			t.Fatal(err)
		}
	}
	sn := seg.Acquire()
	t.Cleanup(sn.Release)
	if sn.NumSegments() != 2 {
		t.Fatalf("live index has %d segments, want a flushed one and the sealed buffer", sn.NumSegments())
	}
	out["segment"], out["sealed-buffer"] = sn.Segment(0), sn.Segment(1)
	return out
}

// TestPositionalMemoMatchesReference is the differential gate of the
// memo: whatever kind of index a leaf is resolved against, and whether
// the entry is computed now, found warm, or recomputed after eviction,
// it equals what PhrasePostings / UnorderedWindowPostings materialise
// and what PostingsBounds derives from that.
func TestPositionalMemoMatchesReference(t *testing.T) {
	for seed := 1; seed <= 3; seed++ {
		keys := positionalKeys(rand.New(rand.NewSource(int64(seed))), 80)
		for name, ix := range positionalIndexes(t, seed) {
			var sc PositionalScratch
			fills := map[string]int{}
			ix.positionals.filled = func(key string) { fills[key]++ }
			nonEmpty := 0
			for _, k := range keys {
				label := fmt.Sprintf("seed %d %s %v", seed, name, k)
				want := k.reference(ix)
				cold, _ := k.leaf(ix, &sc)
				requireMatchesReference(t, label+" cold", ix, cold, want)
				warm, hit := k.leaf(ix, &sc)
				if !hit || warm != cold {
					t.Fatalf("%s: second lookup hit=%v, same entry=%v", label, hit, warm == cold)
				}
				requireMatchesReference(t, label+" warm", ix, warm, want)
				if len(want.Docs) > 0 {
					nonEmpty++
				}
			}
			if nonEmpty < len(keys)/4 {
				t.Fatalf("seed %d %s: only %d of %d keys match anything", seed, name, nonEmpty, len(keys))
			}
			for key, n := range fills {
				if n != 1 {
					t.Fatalf("seed %d %s: key %q intersected %d times with nothing evicted", seed, name, key, n)
				}
			}

			// Shrink the budget so that most of the key set no longer
			// fits: generations flip, large rows stay uncached, and every
			// answer must still be the reference's.
			m := &ix.positionals
			m.mu.Lock()
			m.cur, m.old, m.curCost, m.oldCost = nil, nil, 0, 0
			m.budget = 16 * positionalEntryCost
			m.mu.Unlock()
			before := len(fills)
			for round := 0; round < 3; round++ {
				for _, k := range keys {
					got, _ := k.leaf(ix, &sc)
					requireMatchesReference(t, fmt.Sprintf("seed %d %s %v evicting", seed, name, k), ix, got, k.reference(ix))
					if c := m.cached(t); c > m.budget {
						t.Fatalf("seed %d %s: %d postings cached, budget %d", seed, name, c, m.budget)
					}
				}
			}
			refills := 0
			for _, n := range fills {
				refills += n - 1
			}
			if len(fills) != before || refills == 0 {
				t.Fatalf("seed %d %s: eviction never forced a recomputation (%d refills)", seed, name, refills)
			}
		}
	}
}

// TestPositionalMemoConcurrent is the race gate (run under -race
// -count=10 by `make race`). Many goroutines resolve a small key set at
// once. With the default budget nothing is evicted and every key is
// intersected exactly once however many goroutines ask for it cold;
// with the budget shrunk eviction runs constantly, every answer still
// equals the reference, the cached total never exceeds the budget, and
// each intersection is the one miss some caller was told about.
func TestPositionalMemoConcurrent(t *testing.T) {
	const goroutines, rounds = 8, 200
	keys := positionalKeys(rand.New(rand.NewSource(7)), 24)
	for _, budget := range []int{0, 12 * positionalEntryCost} {
		ix := monolithic(segCorpus(150, 7))
		refs := make([]Postings, len(keys))
		for i, k := range keys {
			refs[i] = k.reference(ix)
		}
		m := &ix.positionals
		m.budget = budget
		var mu sync.Mutex
		fills := map[string]int{}
		m.filled = func(key string) {
			mu.Lock()
			fills[key]++
			mu.Unlock()
		}
		var misses atomic.Int64
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var sc PositionalScratch
				rng := rand.New(rand.NewSource(int64(g)))
				<-start
				for r := 0; r < rounds; r++ {
					// Every goroutine opens on the same key, so cold keys
					// are contended; then they scatter.
					i := r % len(keys)
					if r >= len(keys) {
						i = rng.Intn(len(keys))
					}
					got, hit := keys[i].leaf(ix, &sc)
					if !hit {
						misses.Add(1)
					}
					want := &refs[i]
					if !reflect.DeepEqual(got.Docs, want.Docs) || !reflect.DeepEqual(got.Freqs, want.Freqs) || got.CF != want.CollectionFreq() {
						t.Errorf("budget %d: %v diverges from the reference", budget, keys[i])
						return
					}
					if budget > 0 {
						if c := m.cached(t); c > budget {
							t.Errorf("budget %d: %d postings cached", budget, c)
							return
						}
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		total := 0
		for key, n := range fills {
			total += n
			if budget == 0 && n != 1 {
				t.Errorf("key %q intersected %d times while resident", key, n)
			}
		}
		if int64(total) != misses.Load() {
			t.Errorf("budget %d: %d intersections ran, callers were told of %d misses", budget, total, misses.Load())
		}
		if budget > 0 && total <= len(fills) {
			t.Errorf("budget %d: eviction never forced a recomputation (%d fills of %d keys)", budget, total, len(fills))
		}
	}
}

// TestPositionalHitAllocatesNothing: with a caller-kept scratch, finding
// a resolved leaf — young generation or trivially empty — costs no
// allocation.
func TestPositionalHitAllocatesNothing(t *testing.T) {
	ix := monolithic(segCorpus(200, 3))
	var sc PositionalScratch
	keys := []positionalKey{
		{terms: []string{"a", "b"}}, {terms: []string{"a", "b", "c"}, window: 5},
		{terms: []string{"a", "oov"}}, {terms: []string{"a", "b"}, window: 1},
	}
	for _, k := range keys {
		k.leaf(ix, &sc)
		if n := testing.AllocsPerRun(100, func() { k.leaf(ix, &sc) }); n != 0 {
			t.Errorf("%v: a memo hit allocates %.1f times", k, n)
		}
	}
}

// TestPositionalMissAllocsIndependentOfMatches: a cold miss through a
// warmed scratch allocates a fixed handful of objects — the entry, its
// key, the two rows, the block summaries — not one per matching
// document, so doubling the corpus does not move the count.
func TestPositionalMissAllocsIndependentOfMatches(t *testing.T) {
	keys := []positionalKey{{terms: []string{"a", "b"}}, {terms: []string{"a", "b"}, window: 4}}
	var perCorpus [2][]float64
	for i, n := range []int{400, 800} {
		ix := monolithic(segCorpus(n, 5))
		var sc PositionalScratch
		for _, k := range keys {
			if p, _ := k.leaf(ix, &sc); len(p.Docs) < n/20 {
				t.Fatalf("%v matches only %d of %d documents", k, len(p.Docs), n)
			}
			m := &ix.positionals
			allocs := testing.AllocsPerRun(20, func() {
				m.mu.Lock()
				clear(m.cur)
				clear(m.old)
				m.curCost, m.oldCost = 0, 0
				m.mu.Unlock()
				if _, hit := k.leaf(ix, &sc); hit {
					t.Fatal("the emptied memo reported a hit")
				}
			})
			if allocs > 8 {
				t.Errorf("%v over %d documents: a cold miss allocates %.1f times", k, n, allocs)
			}
			perCorpus[i] = append(perCorpus[i], allocs)
		}
	}
	if !reflect.DeepEqual(perCorpus[0], perCorpus[1]) {
		t.Errorf("miss allocations grew with the corpus: %v at 400 documents, %v at 800", perCorpus[0], perCorpus[1])
	}
}

// BenchmarkPositionalLeafHit is the warm path every served phrase leaf
// takes: key build, shared-lock lookup, done.
func BenchmarkPositionalLeafHit(b *testing.B) {
	ix := monolithic(segCorpus(2000, 1))
	phrases := [][]string{{"a", "b"}, {"b", "c", "d"}, {"e", "f"}, {"a", "g"}}
	var sc PositionalScratch
	for _, p := range phrases {
		ix.PhraseLeaf(p, &sc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.PhraseLeaf(phrases[i%len(phrases)], &sc)
	}
}
