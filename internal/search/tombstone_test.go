package search

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/index"
)

// skewedDocs is buildSkewedIndex's corpus as named documents ("a"
// everywhere, "z" rare, varied lengths), for streaming into a live
// index.
func skewedDocs(n, seed int) []segTestDoc {
	rng := rand.New(rand.NewSource(int64(seed)))
	vocab := []string{"a", "a", "a", "a", "b", "b", "c", "c", "d", "e", "f", "g"}
	docs := make([]segTestDoc, n)
	for d := range docs {
		var sb strings.Builder
		for i, l := 0, 2+rng.Intn(30); i < l; i++ {
			sb.WriteString(vocab[rng.Intn(len(vocab))])
			sb.WriteByte(' ')
		}
		if rng.Intn(17) == 0 {
			sb.WriteString("z ")
		}
		docs[d] = segTestDoc{name: fmt.Sprintf("D%05d", d), text: sb.String()}
	}
	return docs
}

// TestSegmentedTombstonePlacements is the adversarial half of the
// segmented differential: tombstones placed where a candidate-time
// filter or an incremental correction could go wrong, on each kind of
// segment a snapshot can hold (mmap'd v2 files, the memory-backed sealed
// buffer, and both together), under every model and every evaluator,
// against the oracle over a monolithic rebuild of the survivors.
func TestSegmentedTombstonePlacements(t *testing.T) {
	docs := skewedDocs(650, 41)
	full := monoSearcher(docs)
	names := func(ids []index.DocID) []string {
		out := make([]string, len(ids))
		for i, d := range ids {
			out[i] = docs[d].name
		}
		return out
	}
	queries := pruningQueries()

	var rank1 []index.DocID
	for _, q := range queries {
		if res := rank(t, full, q, 1); len(res) == 1 && !slices.Contains(rank1, res[0].Doc) {
			rank1 = append(rank1, res[0].Doc)
		}
	}
	a := full.Index().PostingsFor("a")
	var allButOne []index.DocID
	for d := 0; d < 300; d++ {
		if d != 7 {
			allButOne = append(allButOne, index.DocID(d))
		}
	}
	cases := []struct {
		name string
		dead []index.DocID
	}{
		// The best document of every query is gone: the heap must fill
		// from rank 2 down, with θ set by live documents only.
		{"rank-1", rank1},
		// Every posting of one 128-posting block of the longest list is
		// dead: a whole decode unit the merge walks offers nothing.
		{"whole-block", a.Docs[128:256]},
		// Every document matching one leaf is gone: its df and cf correct
		// to zero and the out-of-vocabulary floor applies.
		{"leaf-to-zero", full.Index().PostingsFor("z").Docs},
		// One survivor in a segment of 300 (and k = 1000 ≥ live matches
		// below): nearly every candidate the merge produces is dead.
		{"all-but-one", allButOne},
	}
	shapes := []struct {
		name      string
		flushDocs int
		flush     bool
	}{
		{"v2", 5000, true},      // one mmap'd segment
		{"buffer", 5000, false}, // the sealed buffer only
		{"mixed", 300, false},   // two v2 segments and a 50-document buffer
	}
	evaluators := []struct {
		name string
		set  func(gs *SegmentedSearcher)
	}{
		{"cost-model", func(gs *SegmentedSearcher) {}},
		{"pruned", func(gs *SegmentedSearcher) { gs.forcePrune = true }},
		{"exhaustive", func(gs *SegmentedSearcher) { gs.DisablePruning = true }},
	}
	for _, shape := range shapes {
		for _, c := range cases {
			deletes := names(c.dead)
			live := buildSegmented(t, docs, shape.flushDocs, nil, false)
			if shape.flush {
				if err := live.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			// One batch: every tombstone lands in one snapshot, after
			// every segment of the shape exists.
			if n, err := live.DeleteBatch(deletes); err != nil || n != len(deletes) {
				t.Fatalf("%s/%s: DeleteBatch = %d, %v; want %d", shape.name, c.name, n, err, len(deletes))
			}
			mono := monoSearcher(survivorsOf(docs, deletes))
			for _, m := range pruningModels {
				mono.Model, mono.Params, mono.Mu = m.model, m.params, m.mu
				for qname, q := range queries {
					// One full ranking; every k below is a prefix of it.
					want := OracleRank(mono, q, len(docs))
					for _, e := range evaluators {
						gs := NewSegmentedSearcher(live)
						gs.Model, gs.Params, gs.Mu = m.model, m.params, m.mu
						e.set(gs)
						for _, k := range []int{1, 10, 1000} {
							label := fmt.Sprintf("%s/%s/%s/%s/%s k=%d", shape.name, c.name, m.name, e.name, qname, k)
							requireSameResults(t, rank(t, gs, q, k), want[:min(k, len(want))], label)
						}
					}
				}
			}
		}
	}
}

// TestSegmentedDeleteBetweenPhases: a delete batch that lands between a
// query's statistics phase and its evaluation phase — and a second query
// that runs on the new snapshot meanwhile, moving the shared correction
// memos past the first one's view — changes nothing for the query that
// pinned the older snapshot, in either phase, then or afterwards.
func TestSegmentedDeleteBetweenPhases(t *testing.T) {
	docs := skewedDocs(650, 42)
	first := []string{"D00003", "D00150", "D00310", "D00640"}
	second := []string{"D00004", "D00151", "D00311", "D00641", "D00500"}
	before := monoSearcher(survivorsOf(docs, first))
	after := monoSearcher(survivorsOf(docs, append(append([]string(nil), first...), second...)))
	ctx := context.Background()

	for qname, q := range pruningQueries() {
		live := buildSegmented(t, docs, 300, nil, false) // two v2 segments and the buffer
		if _, err := live.DeleteBatch(first); err != nil {
			t.Fatal(err)
		}
		gs := NewSegmentedSearcher(live)
		sn := live.Acquire()
		var once sync.Once
		between := func() {
			once.Do(func() {
				if _, err := live.DeleteBatch(second); err != nil {
					t.Errorf("DeleteBatch between the phases: %v", err)
				}
				requireSameResults(t, rank(t, gs, q, 10), rank(t, after, q, 10), qname+": new snapshot, between the phases")
			})
		}
		parts := snapshotPartitions(sn)
		for i, p := range parts {
			parts[i] = &scriptedPartition{partition: p, script: script{onEval: between}}
		}
		pinned := gs.coordinator
		pinned.pin = fixed(parts...)
		// A saturated pool runs every partition call on this goroutine, so
		// the batch lands before the first evaluation and the hook may
		// fail the test.
		pinned.Sem = make(chan struct{}, 1)
		pinned.Sem <- struct{}{}
		got, _, err := evalOne(ctx, &pinned, q, 10, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, got, rank(t, before, q, 10), qname+": pinned across the delete")
		// Both phases again on the old snapshot, now behind the memo.
		got, err = gs.SearchSnapshot(ctx, sn, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, got, rank(t, before, q, 10), qname+": pinned, after the delete")
		sn.Release()
	}
}

// TestTombstonedSegmentEvidence asserts, on counters rather than on a
// timer, what makes a tombstone cost one bit: a tombstoned v2 segment
// still streams its term leaves and still skips blocks, its heap is the
// request's k deep, a repeat query performs no correction probes, and
// the first query after a 64-name batch performs at most 64 per leaf.
func TestTombstonedSegmentEvidence(t *testing.T) {
	// "a" in every document (16 blocks of 128), "z" in five, far apart.
	var docs []segTestDoc
	for d := 0; d < 2000; d++ {
		text := strings.Repeat("a ", 1+d%5) + "b c"
		if d%400 == 17 {
			text += " z z z"
		}
		docs = append(docs, segTestDoc{name: fmt.Sprintf("D%05d", d), text: text})
	}
	live := buildSegmented(t, docs, 5000, nil, false)
	if err := live.Flush(); err != nil {
		t.Fatal(err)
	}
	gs := NewSegmentedSearcher(live)
	gs.forcePrune = true
	q := Weight([]float64{0.9, 0.1}, []Node{Term{Text: "z"}, Term{Text: "a"}})
	const k, leaves = 3, 2
	ctx := context.Background()
	search := func() Evaluation {
		t.Helper()
		ev, err := gs.Evaluate(ctx, []Node{q}, k, EvalOptions{CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}

	clean := search()
	if clean.Stats.correctionProbes != 0 {
		t.Fatalf("segment without tombstones probed %d", clean.Stats.correctionProbes)
	}
	// 64 names: the rank-1 document, and 63 documents matching only "a".
	batch := []string{clean.Results[0][0].Name}
	for d := 100; len(batch) < 64; d += 29 {
		batch = append(batch, docs[d].name)
	}
	if n, err := live.DeleteBatch(batch); err != nil || n != 64 {
		t.Fatalf("DeleteBatch = %d, %v", n, err)
	}
	mono := monoSearcher(survivorsOf(docs, batch))

	first := search()
	requireSameResults(t, first.Results[0], rank(t, mono, q, k), "after the batch")
	st := first.Stats
	if st.correctionProbes == 0 || st.correctionProbes > 64*leaves {
		t.Errorf("first query after a 64-name batch probed %d tombstones, want 1..%d", st.correctionProbes, 64*leaves)
	}
	if st.HeapPushes != k {
		t.Errorf("tombstoned partition pushed %d candidates into a k=%d heap", st.HeapPushes, k)
	}
	if st.BlocksTotal == 0 {
		t.Error("no leaf of the tombstoned v2 segment streamed")
	}
	if st.BlocksDecoded >= st.BlocksTotal {
		t.Errorf("decoded %d of %d blocks: tombstones turned skipping off", st.BlocksDecoded, st.BlocksTotal)
	}
	if st.BlocksTotal != clean.Stats.BlocksTotal {
		t.Errorf("%d blocks behind the leaves with tombstones, %d without", st.BlocksTotal, clean.Stats.BlocksTotal)
	}

	again := search()
	requireSameResults(t, again.Results[0], first.Results[0], "repeat")
	if again.Stats.correctionProbes != 0 {
		t.Errorf("repeat query against an unchanged snapshot probed %d tombstones", again.Stats.correctionProbes)
	}
	first.Stats.correctionProbes = 0
	sameCounters(t, "repeat", again.Stats, first.Stats, true)
}
