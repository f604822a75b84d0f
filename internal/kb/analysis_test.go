package kb

import (
	"strings"
	"testing"
)

func TestDegreeStats(t *testing.T) {
	g, ids := buildTestGraph(t)
	out := OutDegreeStats(g)
	// Out-degrees: A=2, B=2, C=1, H=0.
	if out.Min != 0 || out.Max != 2 {
		t.Errorf("out-degree = %+v", out)
	}
	if out.Mean != 1.25 {
		t.Errorf("mean = %f", out.Mean)
	}
	in := InDegreeStats(g)
	// In-degrees: A=2, B=1, C=1, H=1.
	if in.Max != 2 || in.Min != 1 {
		t.Errorf("in-degree = %+v", in)
	}
	cf := CategoryFanoutStats(g)
	// A=2, B=2, C=1, H=1 categories.
	if cf.Min != 1 || cf.Max != 2 {
		t.Errorf("fanout = %+v", cf)
	}
	_ = ids
	if out.String() == "" {
		t.Error("String empty")
	}
}

func TestDegreeStatsEmpty(t *testing.T) {
	if s := computeDegreeStats(nil); s != (DegreeStats{}) {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(8)
	a1, _ := b.AddArticle("a1")
	a2, _ := b.AddArticle("a2")
	a3, _ := b.AddArticle("a3")
	b1, _ := b.AddArticle("b1")
	b2, _ := b.AddArticle("b2")
	_, _ = b.AddArticle("lonely")
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.AddLink(a1, a2))
	must(b.AddLink(a3, a2)) // direction must not matter
	must(b.AddLink(b1, b2))
	g := b.Build()
	sizes := ConnectedComponents(g)
	want := []int{3, 2, 1}
	if len(sizes) != 3 || sizes[0] != want[0] || sizes[1] != want[1] || sizes[2] != want[2] {
		t.Errorf("components = %v, want %v", sizes, want)
	}
}

func TestAnalyzeReport(t *testing.T) {
	g, _ := buildTestGraph(t)
	r := Analyze(g)
	if r.Stats.Articles != 4 {
		t.Errorf("stats = %+v", r.Stats)
	}
	if r.NumComponents != 1 { // A,B,C,H all connected
		t.Errorf("components = %d", r.NumComponents)
	}
	s := r.String()
	for _, want := range []string{"out-degree", "in-degree", "components"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
