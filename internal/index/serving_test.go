package index_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/index"
	"repro/internal/search"
)

// TestServingMaterialisesNoRows: ranking and explaining queries of
// terms, phrases and windows over a v2 index stream every row they read
// — term leaves, the constituents of positional leaves, and the term
// frequencies Explain reports — and every score equals the in-memory
// index's. (A v2-backed index keeps no term row at all.)
func TestServingMaterialisesNoRows(t *testing.T) {
	b := index.NewBuilder(analysis.Analyzer{})
	words := []string{"a", "b", "c", "d", "a", "b"}
	for d := 0; d < 200; d++ {
		text := ""
		for i := 0; i < 3+d%7; i++ {
			text += words[(d*5+i*3+i*i)%len(words)] + " "
		}
		b.Add(fmt.Sprintf("D%03d", d), text)
	}
	mem := b.Build()
	if err := mem.SetBlockSize(4); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := index.WriteFile(path, mem, index.FormatV2); err != nil {
		t.Fatal(err)
	}
	disk, err := index.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	q := search.Weight([]float64{1, 2, 1}, []search.Node{
		search.Combine(search.Term{Text: "a"}, search.Term{Text: "c"}),
		search.Phrase{Terms: []string{"a", "b"}},
		search.Unordered{Terms: []string{"b", "d"}, Width: 4},
	})
	want := search.NewSearcher(mem).Search(q, 20)
	s := search.NewSearcher(disk)
	got := s.Search(q, 20)
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("%d results over v2, %d in memory", len(got), len(want))
	}
	for i, r := range got {
		if r != want[i] {
			t.Fatalf("rank %d: %+v over v2, %+v in memory", i, r, want[i])
		}
		if ex := s.Explain(q, r.Doc); ex.Score != r.Score {
			t.Fatalf("%s: Explain score %v, Search score %v", r.Name, ex.Score, r.Score)
		}
	}
	if err := disk.Err(); err != nil {
		t.Fatal(err)
	}
}
