package search

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/fault"
)

// TestSegmentedSearcherEmpty: zero live documents (never ingested, or
// all deleted) return no results, no error.
func TestSegmentedSearcherEmpty(t *testing.T) {
	live := buildSegmented(t, nil, 8, nil)
	gs := NewSegmentedSearcher(live)
	if res := rank(t, gs, Term{Text: "a"}, 10); len(res) != 0 {
		t.Fatalf("empty index: %v", res)
	}
	docs := skewedDocs(9, 12)
	var all []string
	for _, d := range docs {
		all = append(all, d.name)
	}
	live2 := buildSegmented(t, docs, 4, all)
	gs2 := NewSegmentedSearcher(live2)
	if res := rank(t, gs2, Term{Text: "a"}, 10); len(res) != 0 {
		t.Fatalf("fully deleted index: %v", res)
	}
}

// TestSegmentedSearcherStats: SearchStats.Shards carries one entry per
// live segment of the pinned snapshot.
func TestSegmentedSearcherStats(t *testing.T) {
	docs := skewedDocs(50, 13)
	live := buildSegmented(t, docs, 16, nil)
	gs := NewSegmentedSearcher(live)
	res, st, err := gs.SearchWithStatsContext(context.Background(), Term{Text: "a"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if want := 4; len(st.Shards) != want { // 3 disk segments + buffer
		t.Fatalf("%d shard stat entries, want %d", len(st.Shards), want)
	}
	if st.Leaves != 1 || st.CandidatesExamined == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

// TestSegmentedSearcherDegradation: the in-process fault point
// (fault.ShardEval) is wired into segment evaluation — an injected
// failure drops that segment under a degradation policy and fails the
// query without one. What a drop does to the ranking is the coordinator
// contract's business (coordinator_test.go).
func TestSegmentedSearcherDegradation(t *testing.T) {
	docs := skewedDocs(60, 14)
	live := buildSegmented(t, docs, 20, nil)
	gs := NewSegmentedSearcher(live)

	fault.Arm(fault.NewRegistry(42).Set(fault.ShardEval, fault.Policy{ErrRate: 1, MaxFaults: 1}))
	defer fault.Disarm()
	res, ev, err := evalOne(context.Background(), gs, Term{Text: "a"}, 10, EvalOptions{Degrade: &DegradeOptions{}})
	if err != nil {
		t.Fatalf("degraded search failed: %v", err)
	}
	if len(ev.Partial.DroppedShards) != 1 {
		t.Fatalf("expected exactly one dropped segment, got %+v", ev.Partial)
	}
	if len(res) == 0 {
		t.Fatal("surviving segments produced no results")
	}

	fault.Arm(fault.NewRegistry(42).Set(fault.ShardEval, fault.Policy{ErrRate: 1, MaxFaults: 1}))
	if _, _, err := evalOne(context.Background(), gs, Term{Text: "a"}, 10, EvalOptions{}); err == nil {
		t.Fatal("strict mode should fail on a segment fault")
	}
}

// TestSegmentedSearcherPinnedSnapshot: a query over an explicitly
// pinned snapshot is unaffected by mutations racing past it, and stays
// bit-identical to the monolithic rebuild of that snapshot's documents.
func TestSegmentedSearcherPinnedSnapshot(t *testing.T) {
	docs := skewedDocs(80, 15)
	live := buildSegmented(t, docs[:40], 16, nil)
	gs := NewSegmentedSearcher(live)

	sn := live.Acquire()
	defer sn.Release()
	mono := monoSearcher(docs[:40])

	// Mutate heavily after pinning.
	for _, d := range docs[40:] {
		if err := live.Ingest(d.name, d.text); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"D00003", "D00017", "D00039"} {
		if _, err := live.DeleteBatch([]string{name}); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}

	for qi, q := range runTrees(runWeights, -1) {
		want := rank(t, mono, q, 10)
		got, err := gs.SearchSnapshot(context.Background(), sn, q, 10)
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		sameResults(t, fmt.Sprintf("pinned q%d", qi), got, want)
	}
}

// TestSegmentedSearcherClosed: searches against a closed live index
// fail cleanly.
func TestSegmentedSearcherClosed(t *testing.T) {
	live := buildSegmented(t, skewedDocs(10, 16), 4, nil)
	gs := NewSegmentedSearcher(live)
	live.Close()
	if _, _, err := evalOne(context.Background(), gs, Term{Text: "a"}, 5, EvalOptions{}); err == nil {
		t.Fatal("search on closed index should fail")
	}
}
