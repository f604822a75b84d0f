package index

import (
	"testing"

	"repro/internal/analysis"
)

func boundsIndex(t *testing.T) *Index {
	t.Helper()
	b := NewBuilder(analysis.Analyzer{})
	b.Add("D0", "a a a b")    // len 4: a tf=3, b tf=1
	b.Add("D1", "a b b")      // len 3: a tf=1, b tf=2
	b.Add("D2", "c")          // len 1: c tf=1
	b.Add("D3", "a c c c c ") // len 5
	return b.Build()
}

// TestStoredMaxTF: a built index stores each term's largest term
// frequency, and its shortest document length.
func TestStoredMaxTF(t *testing.T) {
	ix := boundsIndex(t)
	for term, want := range map[string]int32{"a": 3, "b": 2, "c": 4} {
		id, ok := ix.TermID(term)
		if !ok {
			t.Fatalf("TermID(%q): not found", term)
		}
		if got := ix.StoredMaxTF(id); got != want {
			t.Errorf("StoredMaxTF(%q) = %d, want %d", term, got, want)
		}
	}
	if got := ix.MinDocLen(); got != 1 {
		t.Errorf("MinDocLen = %d, want 1", got)
	}
}

// TestMaxTFOfEmptyPostings: the MaxTF of no postings, and of a term
// stored as no blocks, is zero.
func TestMaxTFOfEmptyPostings(t *testing.T) {
	if got := maxTF(nil); got != 0 {
		t.Fatalf("maxTF of no postings = %d, want 0", got)
	}
	if got := listMaxTF(nil); got != 0 {
		t.Fatalf("listMaxTF of no blocks = %d, want 0", got)
	}
}

func TestMinDocLenEmptyIndex(t *testing.T) {
	ix := NewBuilder(analysis.Analyzer{}).Build()
	if got := ix.MinDocLen(); got != 0 {
		t.Fatalf("empty index MinDocLen = %d, want 0", got)
	}
}
