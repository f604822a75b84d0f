package search

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

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

	for _, pq := range singleTrees() {
		qname, q := pq.name, pq.trees[0]
		live := buildSegmented(t, docs, 300, nil) // two v2 segments and the buffer
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
				sameResults(t, qname+": new snapshot, between the phases", rank(t, gs, q, 10), rank(t, after, q, 10))
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
		sameResults(t, qname+": pinned across the delete", got, rank(t, before, q, 10))
		// Both phases again on the old snapshot, now behind the memo.
		got, err = gs.SearchSnapshot(ctx, sn, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, qname+": pinned, after the delete", got, rank(t, before, q, 10))
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
	var docs []testDoc
	for d := 0; d < 2000; d++ {
		text := strings.Repeat("a ", 1+d%5) + "b c"
		if d%400 == 17 {
			text += " z z z"
		}
		docs = append(docs, testDoc{name: fmt.Sprintf("D%05d", d), text: text})
	}
	live := buildSegmented(t, docs, 5000, nil)
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
	sameResults(t, "after the batch", first.Results[0], rank(t, mono, q, k))
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
	sameResults(t, "repeat", again.Results[0], first.Results[0])
	if again.Stats.correctionProbes != 0 {
		t.Errorf("repeat query against an unchanged snapshot probed %d tombstones", again.Stats.correctionProbes)
	}
	first.Stats.correctionProbes = 0
	sameCounters(t, "repeat", again.Stats, first.Stats, true)
}
