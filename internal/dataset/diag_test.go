package dataset

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/index"
	"repro/internal/search"
	"repro/internal/wikigen"
)

// TestDiagQLQ prints, for the first few queries of a default-scale Image
// CLEF instance, how many documents match all query alias terms and how
// many of those are relevant. Run with -v to see the numbers; the test
// itself only asserts generation succeeds. It exists to sanity-check the
// plant-vs-relevant balance that sets the QL_Q baseline.
func TestDiagQLQ(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic only")
	}
	world := wikigen.MustGenerate(wikigen.DefaultConfig())
	inst, err := BuildImageCLEF(world, ScaleDefault)
	if err != nil {
		t.Fatal(err)
	}
	a := analysis.Standard()
	for qi := 0; qi < 5; qi++ {
		q := &inst.Queries[qi]
		terms := a.AnalyzeTerms(q.Text)
		// Count docs containing every query term.
		counts := make(map[int32]int) // docID -> matched terms
		for _, term := range terms {
			p := inst.Index.PostingsFor(term)
			if p == nil {
				t.Logf("%s: term %q OOV", q.ID, term)
				continue
			}
			for _, d := range p.Docs {
				counts[int32(d)]++
			}
		}
		full, fullRel := 0, 0
		rel := inst.Qrels[q.ID]
		for d, c := range counts {
			if c == len(terms) {
				full++
				if rel[inst.Index.DocName(index.DocID(d))] {
					fullRel++
				}
			}
		}
		t.Logf("%s %q: %d terms, rel=%d, docs-matching-all=%d (of which relevant=%d)",
			q.ID, q.Text, len(terms), q.NumRelevant, full, fullRel)
		node := search.BagOfWords(a, q.Text)
		ev, err := search.NewSearcher(inst.Index).Evaluate(context.Background(), []search.Node{node}, 10, search.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res := ev.Results[0]
		hits := 0
		for _, r := range res {
			if rel[r.Name] {
				hits++
			}
			tfs := make([]int32, len(terms))
			for ti, term := range terms {
				p := inst.Index.PostingsFor(term)
				if p == nil {
					continue
				}
				for i, d := range p.Docs {
					if d == r.Doc {
						tfs[ti] = p.Freqs[i]
					}
				}
			}
			t.Logf("  doc %s rel=%v len=%d score=%.4f tfs=%v",
				r.Name, rel[r.Name], inst.Index.DocLen(r.Doc), r.Score, tfs)
		}
		t.Logf("  QL_Q P@10 = %d/10", hits)
	}
}
