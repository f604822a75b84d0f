package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// positionalKey is one leaf the tests resolve: an exact phrase when
// window is 0, a #uw<window> otherwise.
type positionalKey struct {
	terms  []string
	window int
}

func (k positionalKey) String() string { return fmt.Sprintf("%v/%d", k.terms, k.window) }

// reference is the exported, position-materialising form of the leaf.
// The memo tests take it from the Builder's index of the documents the
// index under test holds, so a v2-backed kind is held to rows its own
// block cursors never produced.
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
// postings: rows, collection frequency and MaxTF.
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
	if m := maxTF(want.Freqs); got.MaxTF != m {
		t.Fatalf("%s: MaxTF %d, reference %d", label, got.MaxTF, m)
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

// blockSized builds the in-memory index over docs at block size bs.
func blockSized(t *testing.T, docs []segDoc, bs int) *Index {
	t.Helper()
	ix := monolithic(docs)
	if err := ix.SetBlockSize(bs); err != nil {
		t.Fatal(err)
	}
	return ix
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
	docs := segCorpus(150, 7)
	mem := monolithic(docs)
	refs := make([]Postings, len(keys))
	for i, k := range keys {
		refs[i] = k.reference(mem)
	}
	for _, leg := range []struct {
		backing string
		budget  int
	}{{"memory", 0}, {"memory", 12 * positionalEntryCost}, {"v2", 0}, {"v2", 12 * positionalEntryCost}} {
		budget := leg.budget
		ix := monolithic(docs)
		if leg.backing == "v2" {
			ix = openV2File(t, blockSized(t, docs, 4))
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
						t.Errorf("%v: %v diverges from the reference", leg, keys[i])
						return
					}
					if budget > 0 {
						if c := m.cached(t); c > budget {
							t.Errorf("%v: %d postings cached", leg, c)
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
				t.Errorf("%v: key %q intersected %d times while resident", leg, key, n)
			}
		}
		if int64(total) != misses.Load() {
			t.Errorf("%v: %d intersections ran, callers were told of %d misses", leg, total, misses.Load())
		}
		if budget > 0 && total <= len(fills) {
			t.Errorf("%v: eviction never forced a recomputation (%d fills of %d keys)", leg, total, len(fills))
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
// key, the two rows — not one per matching document, nor on a v2 index
// one per decoded block (the cursors decode positions into the
// scratch's reused windows), so doubling the corpus does not move the
// count.
func TestPositionalMissAllocsIndependentOfMatches(t *testing.T) {
	keys := []positionalKey{{terms: []string{"a", "b"}}, {terms: []string{"a", "b"}, window: 4}}
	for _, backing := range []string{"memory", "v2"} {
		var perCorpus [2][]float64
		for i, n := range []int{400, 800} {
			ix := blockSized(t, segCorpus(n, 5), 4)
			if backing == "v2" {
				ix = openV2File(t, ix)
			}
			perCorpus[i] = missAllocs(t, ix, keys, n)
		}
		if !reflect.DeepEqual(perCorpus[0], perCorpus[1]) {
			t.Errorf("%s: miss allocations grew with the corpus: %v at 400 documents, %v at 800", backing, perCorpus[0], perCorpus[1])
		}
	}
}

// missAllocs returns, per key, the allocations of a cold miss on ix of n
// documents through one warmed scratch.
func missAllocs(t *testing.T, ix *Index, keys []positionalKey, n int) []float64 {
	t.Helper()
	var sc PositionalScratch
	var out []float64
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
		out = append(out, allocs)
	}
	return out
}

// abKeys are the two operators the failure tests resolve over "a" and
// "b", the most frequent terms of randomIndex.
var abKeys = []positionalKey{{terms: []string{"a", "b"}}, {terms: []string{"a", "b"}, window: 5}}

// requireEmptyFill demands that key k resolves to the empty leaf on ix,
// that the empty result is what the memo keeps, that the exported form
// agrees, and that ix.Err recorded an error naming want.
func requireEmptyFill(t *testing.T, label string, ix *Index, k positionalKey, want string) {
	t.Helper()
	var sc PositionalScratch
	got, hit := k.leaf(ix, &sc)
	if hit || len(got.Docs) != 0 || len(got.Freqs) != 0 || got.CF != 0 || got.MaxTF != 0 {
		t.Fatalf("%s %v: hit=%v, the failed fill kept %d documents (cf %d)", label, k, hit, len(got.Docs), got.CF)
	}
	if again, hit := k.leaf(ix, &sc); !hit || again != got {
		t.Fatalf("%s %v: the empty result was not the cached one (hit=%v)", label, k, hit)
	}
	if p := k.reference(ix); len(p.Docs) != 0 || len(p.Positions) != 0 {
		t.Fatalf("%s %v: the exported form kept %d documents", label, k, len(p.Docs))
	}
	if err := ix.Err(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("%s %v: recorded %v, want %q", label, k, err, want)
	}
}

// TestPositionalFillFailure: a fill that cannot read a constituent's
// block resolves to the empty leaf, as a row that failed to decode
// always did, and records why. A block that rots after Open is met
// only once matches have already been gathered — the fragment must not
// be cached. An index closed before its first fill reads nothing. A
// CRC-consistent file whose block bounds lie decodes fine: the leaf is
// the honest one, and the disagreement is recorded.
func TestPositionalFillFailure(t *testing.T) {
	mem := randomIndex(t, 300, 11)
	if err := mem.SetBlockSize(4); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encodeV2(&buf, mem); err != nil {
		t.Fatal(err)
	}

	t.Run("rotted-block", func(t *testing.T) {
		for _, k := range abKeys {
			ix := openV2Heap(t, append([]byte(nil), buf.Bytes()...))
			want := k.reference(mem)
			// Rot the block of "a" holding the last match, behind blocks
			// that already matched.
			id, last := ix.terms["a"], want.Docs[len(want.Docs)-1]
			b := 0
			for ix.blockBounds[id][b].LastDoc < last {
				b++
			}
			if b == 0 || ix.blockBounds[id][b-1].LastDoc < want.Docs[0] {
				t.Fatalf("%v: every match sits in block %d of a", k, b)
			}
			lz := ix.lazy
			ext := lz.extents[int(lz.starts[id])+b]
			lz.post[ext.off+int64(ext.size)-1] ^= 0xFF
			requireEmptyFill(t, "rotted", ix, k, "checksum mismatch")
		}
	})

	t.Run("closed", func(t *testing.T) {
		ix := openV2File(t, mem)
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		for _, k := range abKeys {
			requireEmptyFill(t, "closed", ix, k, "after Close")
		}
	})

	t.Run("lying-bounds", func(t *testing.T) {
		img, honest := lyingV2Bytes(t)
		ix := openV2Heap(t, img)
		var sc PositionalScratch
		for _, k := range abKeys {
			got, _ := k.leaf(ix, &sc)
			requireMatchesReference(t, fmt.Sprintf("lying %v", k), ix, got, k.reference(honest))
		}
		if err := ix.Err(); err == nil || !strings.Contains(err.Error(), "stored bounds disagree") {
			t.Fatalf("recorded %v, want the bounds disagreement", err)
		}
	})
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
