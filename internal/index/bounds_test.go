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

func TestBoundsFor(t *testing.T) {
	ix := boundsIndex(t)
	cases := []struct {
		term string
		want TermBounds
	}{
		// a: postings (D0 tf=3 dl=4), (D1 tf=1 dl=3), (D3 tf=1 dl=5);
		// best ratio 3/4.
		{"a", TermBounds{MaxTF: 3, MinDL: 3, MaxRatioTF: 3, MaxRatioDL: 4}},
		// b: (D0 tf=1 dl=4), (D1 tf=2 dl=3); best ratio 2/3.
		{"b", TermBounds{MaxTF: 2, MinDL: 3, MaxRatioTF: 2, MaxRatioDL: 3}},
		// c: (D2 tf=1 dl=1), (D3 tf=4 dl=5); 1/1 > 4/5, argmax keeps D2.
		{"c", TermBounds{MaxTF: 4, MinDL: 1, MaxRatioTF: 1, MaxRatioDL: 1}},
	}
	for _, c := range cases {
		got, ok := ix.BoundsFor(c.term)
		if !ok {
			t.Fatalf("BoundsFor(%q): not found", c.term)
		}
		if got != c.want {
			t.Errorf("BoundsFor(%q) = %+v, want %+v", c.term, got, c.want)
		}
	}
	if _, ok := ix.BoundsFor("zzz"); ok {
		t.Error("BoundsFor(OOV) reported ok")
	}
	if got := ix.MinDocLen(); got != 1 {
		t.Errorf("MinDocLen = %d, want 1", got)
	}
}

func TestBoundsRatioTieKeepsEarliest(t *testing.T) {
	// Two postings with the exact same ratio (1/2 and 2/4): the argmax
	// comparison is strict, so the earlier posting wins.
	b := NewBuilder(analysis.Analyzer{})
	b.Add("D0", "a x")     // tf=1 dl=2
	b.Add("D1", "a a x x") // tf=2 dl=4
	ix := b.Build()
	got, _ := ix.BoundsFor("a")
	if got.MaxRatioTF != 1 || got.MaxRatioDL != 2 {
		t.Fatalf("ratio argmax = (%d,%d), want earliest (1,2)", got.MaxRatioTF, got.MaxRatioDL)
	}
}

func TestPostingsBoundsEmpty(t *testing.T) {
	ix := boundsIndex(t)
	var empty Postings
	if got := ix.PostingsBounds(&empty); got != (TermBounds{}) {
		t.Fatalf("empty postings bounds = %+v, want zero", got)
	}
}

func TestMinDocLenEmptyIndex(t *testing.T) {
	ix := NewBuilder(analysis.Analyzer{}).Build()
	if got := ix.MinDocLen(); got != 0 {
		t.Fatalf("empty index MinDocLen = %d, want 0", got)
	}
}
