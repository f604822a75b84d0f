package search

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/index"
)

// TestConcurrentSearches asserts the Searcher is safe for concurrent
// read-only use: many goroutines searching the same index must agree
// with the sequential results (run under -race in CI).
func TestConcurrentSearches(t *testing.T) {
	b := index.NewBuilder(analysis.Analyzer{})
	docs := []string{
		"cable car over the bay",
		"funicular climbs the hill",
		"cable railway museum",
		"harbor boats at dusk",
		"car factory cable assembly",
	}
	for i, d := range docs {
		b.Add("D"+string(rune('0'+i)), d)
	}
	s := NewSearcher(b.Build())
	queries := []Node{
		Term{Text: "cable"},
		Phrase{Terms: []string{"cable", "car"}},
		Combine(Term{Text: "cable"}, Term{Text: "funicular"}),
		Unordered{Terms: []string{"cable", "car"}, Width: 5},
	}
	want := make([][]Result, len(queries))
	for i, q := range queries {
		want[i] = rank(t, s, q, 10)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i, q := range queries {
					got, _, err := evalOne(context.Background(), s, q, 10, EvalOptions{})
					if err != nil {
						t.Error(err)
						return
					}
					if !slices.Equal(got, want[i]) {
						t.Errorf("concurrent ranking differs for query %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
