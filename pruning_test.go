package sqe

import (
	"context"
	"testing"
)

// TestEnginePruningStats: the pruned engine reports its skip work
// through Do's stats, and the accounting identity against the unpruned
// engine holds end-to-end (advanced + skipped = unpruned advanced).
func TestEnginePruningStats(t *testing.T) {
	e := demo(t)
	full := NewEngine(e.Engine.Graph(), e.Engine.Index(), WithPruning(false))
	pruned := NewEngine(e.Engine.Graph(), e.Engine.Index())
	var sawSkip bool
	var scoredFull, scoredPruned int64
	for _, q := range e.Queries {
		req := SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifTS, K: 10, CollectStats: true}
		want, err := full.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pruned.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		ps, fs := got.Stats.Search, want.Stats.Search
		if ps.PostingsAdvanced+ps.DocsSkipped != fs.PostingsAdvanced {
			t.Fatalf("%s: advanced %d + skipped %d != full postings mass %d",
				q.ID, ps.PostingsAdvanced, ps.DocsSkipped, fs.PostingsAdvanced)
		}
		if ps.CandidatesExamined > fs.CandidatesExamined {
			t.Fatalf("%s: pruned candidates %d > full %d", q.ID, ps.CandidatesExamined, fs.CandidatesExamined)
		}
		if fs.DocsSkipped != 0 {
			t.Fatalf("%s: WithPruning(false) engine reported skips", q.ID)
		}
		if ps.DocsSkipped > 0 {
			sawSkip = true
		}
		scoredFull += fs.CandidatesExamined
		scoredPruned += ps.CandidatesExamined
	}
	if !sawSkip {
		t.Fatal("pruning never skipped a posting across the demo workload")
	}
	// Pruning that stops paying for itself is a regression even when
	// nothing is wrong numerically.
	if scoredFull < 2*scoredPruned {
		t.Fatalf("pruned engine scored %d documents against %d exhaustive: less than the 2x floor", scoredPruned, scoredFull)
	}
}
