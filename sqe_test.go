package sqe

import (
	"context"
	"strings"
	"testing"
)

// demo is the shared DemoSmall environment (the differential harness's
// world, differential_test.go).
func demo(t *testing.T) *DemoEnv {
	t.Helper()
	return theWorld(t).env
}

func TestGenerateDemo(t *testing.T) {
	e := demo(t)
	if e.Engine == nil || len(e.Queries) == 0 {
		t.Fatal("demo environment incomplete")
	}
	if e.DatasetName == "" {
		t.Error("dataset name missing")
	}
	for _, q := range e.Queries {
		if q.ID == "" || q.Text == "" {
			t.Fatalf("query incomplete: %+v", q)
		}
		if len(q.EntityTitles) == 0 {
			t.Fatalf("%s: no entity titles", q.ID)
		}
	}
}

func TestExpandReturnsFeatures(t *testing.T) {
	e := demo(t)
	withFeatures := 0
	for _, q := range e.Queries {
		exp, err := e.Engine.Expand(q.Text, q.EntityTitles, MotifTS)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if len(exp.QueryNodes) != len(q.EntityTitles) {
			t.Fatalf("%s: query nodes %d != entities %d", q.ID, len(exp.QueryNodes), len(q.EntityTitles))
		}
		if len(exp.Features) > 0 {
			withFeatures++
			for i := 1; i < len(exp.Features); i++ {
				if exp.Features[i-1].Weight < exp.Features[i].Weight {
					t.Fatalf("%s: features not sorted", q.ID)
				}
			}
			for _, f := range exp.Features {
				if f.Title == "" {
					t.Fatalf("%s: feature without title", q.ID)
				}
			}
		}
	}
	if withFeatures < len(e.Queries)/2 {
		t.Errorf("only %d/%d queries expanded", withFeatures, len(e.Queries))
	}
}

func TestSearchImprovesOverBaseline(t *testing.T) {
	e := demo(t)
	ctx := context.Background()
	var base, sqe float64
	for _, q := range e.Queries {
		b, err := e.Engine.Do(ctx, SearchRequest{Query: q.Text, K: 10, Baseline: true})
		if err != nil {
			t.Fatal(err)
		}
		s, err := e.Engine.Do(ctx, SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		base += PrecisionAt(b.Results, q.Relevant, 10)
		sqe += PrecisionAt(s.Results, q.Relevant, 10)
	}
	if sqe <= base {
		t.Errorf("SQE P@10 sum %.2f not above baseline %.2f", sqe, base)
	}
}

func TestSearchSetConfigurations(t *testing.T) {
	e := demo(t)
	q := e.Queries[0]
	for _, set := range []MotifSet{MotifT, MotifS, MotifTS} {
		resp, err := e.Engine.Do(context.Background(), SearchRequest{
			Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: set, K: 20,
		})
		if err != nil {
			t.Fatalf("set %v: %v", set, err)
		}
		res := resp.Results
		if len(res) == 0 {
			t.Fatalf("set %v returned nothing", set)
		}
		for i := 1; i < len(res); i++ {
			if res[i-1].Score < res[i].Score {
				t.Fatalf("set %v: results not sorted", set)
			}
		}
	}
}

func TestSearchSplicesWithoutDuplicates(t *testing.T) {
	e := demo(t)
	q := e.Queries[0]
	resp, err := e.Engine.Do(context.Background(), SearchRequest{
		Query: q.Text, EntityTitles: q.EntityTitles, K: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range resp.Results {
		if seen[r.Name] {
			t.Fatalf("duplicate %s in spliced results", r.Name)
		}
		seen[r.Name] = true
	}
}

func TestAutomaticEntityLinking(t *testing.T) {
	e := demo(t)
	linked := 0
	for _, q := range e.Queries {
		exp, err := e.Engine.Expand(q.Text, nil, MotifTS) // nil titles → linker
		if err != nil {
			t.Fatal(err)
		}
		if len(exp.QueryNodes) > 0 {
			linked++
		}
	}
	if linked < len(e.Queries)/2 {
		t.Errorf("linker resolved only %d/%d queries", linked, len(e.Queries))
	}
}

func TestUnknownEntityTitle(t *testing.T) {
	e := demo(t)
	if _, err := e.Engine.Expand("x", []string{"No Such Article"}, MotifT); err == nil {
		t.Error("unknown entity title should error")
	}
	if _, err := e.Engine.Do(context.Background(), SearchRequest{
		Query: "x", EntityTitles: []string{"No Such Article"}, K: 5,
	}); err == nil {
		t.Error("unknown entity title should error in Do")
	}
}

func TestCategoryAsEntityRejected(t *testing.T) {
	e := demo(t)
	g := e.Engine.Graph()
	var catTitle string
	g.CategoriesAll(func(id NodeID) bool {
		catTitle = g.Title(id)
		return false
	})
	if catTitle == "" {
		t.Fatal("no categories in demo graph")
	}
	if _, err := e.Engine.Expand("x", []string{catTitle}, MotifT); err == nil ||
		!strings.Contains(err.Error(), "category") {
		t.Errorf("category entity should be rejected, got %v", err)
	}
}

func TestSearchPRF(t *testing.T) {
	e := demo(t)
	q := e.Queries[0]
	resp, err := e.Engine.Do(context.Background(), SearchRequest{
		Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifTS, K: 10,
		PRF: &PRFConfig{FbDocs: 5, FbTerms: 10, OrigWeight: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Error("PRF search returned nothing")
	}
}

func TestPrecisionAtHelper(t *testing.T) {
	rel := map[string]bool{"a": true}
	res := []Result{{Name: "a"}, {Name: "b"}}
	if got := PrecisionAt(res, rel, 2); got != 0.5 {
		t.Errorf("PrecisionAt = %f", got)
	}
	if got := PrecisionAt(res, rel, 0); got != 0 {
		t.Errorf("PrecisionAt k=0 = %f", got)
	}
	if got := PrecisionAt(nil, rel, 5); got != 0 {
		t.Errorf("PrecisionAt empty = %f", got)
	}
}

// TestWithDirichletMu checks the μ option actually reaches the scorer:
// two engines over the same corpus differing only in μ must score
// differently.
func TestWithDirichletMu(t *testing.T) {
	e := demo(t)
	q := e.Queries[0]
	ctx := context.Background()
	req := SearchRequest{Query: q.Text, K: 5, Baseline: true}
	before, err := e.Engine.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	tuned := NewEngine(e.Engine.Graph(), e.Engine.Index(), WithDirichletMu(10))
	after, err := tuned.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Results) == 0 || len(after.Results) == 0 {
		t.Fatal("searches returned nothing")
	}
	if before.Results[0].Score == after.Results[0].Score {
		t.Error("changing μ should change scores")
	}
}

func TestNewEntityDictionary(t *testing.T) {
	e := MustGenerateDemo(DemoSmall)
	d := NewEntityDictionary(e.Engine)
	var title string
	g := e.Engine.Graph()
	g.Articles(func(id NodeID) bool { title = g.Title(id); return false })
	d.AddTitle(title, g.ByTitle(title), 1)
	// The linker is construction-time configuration; build an engine over
	// the same graph and index that links through the custom dictionary.
	eng := NewEngine(g, e.Engine.Index(), WithLinker(d))
	exp, err := eng.Expand(title, nil, MotifTS)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.QueryNodes) != 1 {
		t.Errorf("custom dictionary failed to link %q", title)
	}
}

func TestWithRetrievalModel(t *testing.T) {
	e := MustGenerateDemo(DemoSmall)
	q := e.Queries[0]
	ctx := context.Background()
	req := SearchRequest{Query: q.Text, K: 5, Baseline: true}
	dirichlet, err := e.Engine.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	bm25Eng := NewEngine(e.Engine.Graph(), e.Engine.Index(), WithRetrievalModel(ModelBM25, ModelParams{}))
	bm25, err := bm25Eng.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirichlet.Results) == 0 || len(bm25.Results) == 0 {
		t.Fatal("searches returned nothing")
	}
	if dirichlet.Results[0].Score == bm25.Results[0].Score {
		t.Error("model switch had no effect on scores")
	}
	// SQE still works under BM25.
	resp, err := bm25Eng.Do(ctx, SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Error("SQE under BM25 returned nothing")
	}
}

func TestParseQuery(t *testing.T) {
	e := demo(t)
	q := e.Queries[0]
	words := strings.Fields(q.Text)
	res, err := e.Engine.ParseQuery(context.Background(), "#weight(2 "+words[0]+" 1 "+words[1]+")", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Error("parsed query retrieved nothing")
	}
	if _, err := e.Engine.ParseQuery(context.Background(), "#weight(", 5); err == nil {
		t.Error("bad query should error")
	}
}
