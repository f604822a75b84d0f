package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/index"
	"repro/internal/kb"
	"repro/internal/motif"
	"repro/internal/search"
)

// graph: Q ↔ {E1,E2}, all sharing category C; E1 additionally shares a
// second category so triangular counts differ.
func expander(t *testing.T) (*Expander, map[string]kb.NodeID) {
	t.Helper()
	b := kb.NewBuilder(8)
	ids := map[string]kb.NodeID{}
	for _, n := range []string{"Query Article", "First Expansion", "Second Expansion"} {
		id, err := b.AddArticle(n)
		if err != nil {
			t.Fatal(err)
		}
		ids[n] = id
	}
	c1, _ := b.AddCategory("Category:C1")
	c2, _ := b.AddCategory("Category:C2")
	ids["C1"], ids["C2"] = c1, c2
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.AddMembership(ids["Query Article"], c1))
	must(b.AddMembership(ids["First Expansion"], c1))
	must(b.AddMembership(ids["First Expansion"], c2))
	must(b.AddMembership(ids["Second Expansion"], c1))
	for _, e := range []string{"First Expansion", "Second Expansion"} {
		must(b.AddLink(ids["Query Article"], ids[e]))
		must(b.AddLink(ids[e], ids["Query Article"]))
	}
	g := b.Build()
	return NewExpander(g, analysis.Standard()), ids
}

func TestBuildQueryGraph(t *testing.T) {
	e, ids := expander(t)
	qg := e.BuildQueryGraph([]kb.NodeID{ids["Query Article"]}, motif.SetT)
	if len(qg.Features) != 2 {
		t.Fatalf("features = %+v", qg.Features)
	}
	arts := qg.ExpansionArticles()
	if arts[0] == ids["Query Article"] || arts[1] == ids["Query Article"] {
		t.Error("query node leaked into features")
	}
	// Both share exactly C1 with Q → one instance each; weights 1.
	for _, f := range qg.Features {
		if f.Weight != 1 {
			t.Errorf("weight = %v, want 1", f.Weight)
		}
	}
}

func TestMaxFeaturesCap(t *testing.T) {
	e, ids := expander(t)
	e.MaxFeatures = 1
	qg := e.BuildQueryGraph([]kb.NodeID{ids["Query Article"]}, motif.SetT)
	if len(qg.Features) != 1 {
		t.Errorf("cap ignored: %+v", qg.Features)
	}
}

func TestUniformFeatureWeights(t *testing.T) {
	e, ids := expander(t)
	e.UniformFeatureWeights = true
	qg := e.BuildQueryGraph([]kb.NodeID{ids["Query Article"]}, motif.SetTS)
	for _, f := range qg.Features {
		if f.Weight != 1 {
			t.Errorf("uniform weights violated: %+v", f)
		}
	}
}

func TestBuildQueryStructure(t *testing.T) {
	e, ids := expander(t)
	qg := e.BuildQueryGraph([]kb.NodeID{ids["Query Article"]}, motif.SetT)
	node := e.BuildQuery("user words", qg)
	s := node.String()
	// Three-part weight with the user query terms, entity phrase and
	// expansion phrases.
	for _, want := range []string{"#weight(", "user", "word", "#1(queri articl)", "#1(first expans)", "#1(second expans)"} {
		if !strings.Contains(s, want) {
			t.Errorf("query %q missing %q", s, want)
		}
	}
}

func TestBuildQueryEmptyParts(t *testing.T) {
	e, _ := expander(t)
	// No entities, no features: only the user part remains and the
	// query must still be non-empty and searchable.
	node := e.BuildQuery("hello world", QueryGraph{})
	if search.IsEmpty(node) {
		t.Error("query with only user part should not be empty")
	}
	// Everything empty → empty query.
	if !search.IsEmpty(e.BuildQuery("", QueryGraph{})) {
		t.Error("fully empty query should be empty")
	}
}

func TestBaselineBuilders(t *testing.T) {
	e, ids := expander(t)
	q := ids["Query Article"]
	if got := e.QLQuery("cable cars").String(); !strings.Contains(got, "cabl") {
		t.Errorf("QLQuery = %q", got)
	}
	if got := e.QLEntities([]kb.NodeID{q}).String(); !strings.Contains(got, "#1(queri articl)") {
		t.Errorf("QLEntities = %q", got)
	}
	qe := e.QLQueryEntities("cable cars", []kb.NodeID{q}).String()
	if !strings.Contains(qe, "cabl") || !strings.Contains(qe, "#1(queri articl)") {
		t.Errorf("QLQueryEntities = %q", qe)
	}
	qg := e.BuildQueryGraph([]kb.NodeID{q}, motif.SetT)
	qx := e.QLExpansionOnly(qg).String()
	if strings.Contains(qx, "cabl") || !strings.Contains(qx, "expans") {
		t.Errorf("QLExpansionOnly = %q", qx)
	}
}

func TestGroundTruthGraphCopies(t *testing.T) {
	nodes := []kb.NodeID{1}
	feats := []Feature{{Article: 2, Weight: 3}}
	qg := GroundTruthGraph(nodes, feats)
	nodes[0] = 99
	feats[0].Weight = 99
	if qg.QueryNodes[0] != 1 || qg.Features[0].Weight != 3 {
		t.Error("GroundTruthGraph must copy its inputs")
	}
}

func TestSortFeatures(t *testing.T) {
	f := []Feature{{Article: 3, Weight: 1}, {Article: 1, Weight: 2}, {Article: 2, Weight: 2}}
	SortFeatures(f)
	want := []Feature{{Article: 1, Weight: 2}, {Article: 2, Weight: 2}, {Article: 3, Weight: 1}}
	if !reflect.DeepEqual(f, want) {
		t.Errorf("SortFeatures = %+v", f)
	}
}

// TestSpliceResults covers the SQE_C splice. Every result carries its
// run's tag as its score (T=1, T&S=2, S=3), so each case also checks the
// first-run-wins rule: a name spliced from a later run keeps the Result
// of the first run that ranks it.
func TestSpliceResults(t *testing.T) {
	const tagT, tagTS, tagS = 1, 2, 3
	run := func(tag float64, names ...string) []search.Result {
		out := make([]search.Result, len(names))
		for i, n := range names {
			out[i] = search.Result{Doc: index.DocID(i), Name: n, Score: tag}
		}
		return out
	}
	seq := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%03d", prefix, i)
		}
		return out
	}
	type spliceCase struct {
		name              string
		limit             int
		cuts              [2]int
		runT, runTS, runS []string
		want              []string
	}
	cases := []spliceCase{
		{
			// T takes 2; T&S fills to 5 skipping the duplicate a1; S fills
			// the rest skipping the duplicate b1.
			name: "dedup", limit: 10, cuts: [2]int{2, 5},
			runT: []string{"a1", "a2", "a3"}, runTS: []string{"a1", "b1", "b2", "b3"}, runS: []string{"c1", "b1", "c2"},
			want: []string{"a1/T", "a2/T", "b1/TS", "b2/TS", "b3/TS", "c1/S", "c2/S"},
		},
		{
			name: "limit", limit: 3, cuts: DefaultSpliceCuts,
			runS: []string{"a", "b", "c", "d"},
			want: []string{"a/S", "b/S", "c/S"},
		},
		{
			name: "nil-runs", limit: 5, cuts: [2]int{3, 0},
			runTS: []string{"x"},
			want:  []string{"x/TS"},
		},
		{
			name: "all-nil", limit: 5, cuts: DefaultSpliceCuts,
			want: []string{},
		},
		{
			// k below the first cut: T alone fills the list.
			name: "k-below-cut", limit: 3, cuts: DefaultSpliceCuts,
			runT: seq("t", 10), runTS: seq("s", 10), runS: seq("u", 10),
			want: []string{"t000/T", "t001/T", "t002/T"},
		},
		{
			// b is spliced from T&S and d from S, but the earlier run's
			// Result wins each time.
			name: "first-run-wins", limit: 10, cuts: [2]int{1, 3},
			runT: []string{"a", "b"}, runTS: []string{"c", "b", "d"}, runS: []string{"d", "e"},
			want: []string{"a/T", "c/TS", "b/T", "d/TS", "e/S"},
		},
	}
	tagged := func(names []string, tag string) []string {
		out := make([]string, len(names))
		for i, n := range names {
			out[i] = n + "/" + tag
		}
		return out
	}
	// The paper's cuts (ranks 1-5 from T, 6-200 from T&S, 201+ from S)
	// and the ablation's 2/50, over disjoint runs longer than the limit.
	for _, c := range []struct {
		name  string
		limit int
		cuts  [2]int
	}{{"paper-cuts", 250, DefaultSpliceCuts}, {"cuts-2-50", 60, [2]int{2, 50}}} {
		want := tagged(seq("t", c.cuts[0]), "T")
		want = append(want, tagged(seq("s", c.cuts[1]-c.cuts[0]), "TS")...)
		want = append(want, tagged(seq("u", c.limit-c.cuts[1]), "S")...)
		cases = append(cases, spliceCase{name: c.name, limit: c.limit, cuts: c.cuts, runT: seq("t", 300), runTS: seq("s", 300), runS: seq("u", 300), want: want})
	}
	runName := map[float64]string{tagT: "T", tagTS: "TS", tagS: "S"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var runT, runTS, runS []search.Result
			if tc.runT != nil {
				runT = run(tagT, tc.runT...)
			}
			if tc.runTS != nil {
				runTS = run(tagTS, tc.runTS...)
			}
			if tc.runS != nil {
				runS = run(tagS, tc.runS...)
			}
			out := SpliceResults(tc.limit, tc.cuts, runT, runTS, runS)
			got := make([]string, len(out))
			for i, r := range out {
				got[i] = r.Name + "/" + runName[r.Score]
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("SpliceResults = %v, want %v", got, tc.want)
			}
			if tc.cuts == DefaultSpliceCuts {
				if c := SpliceResultsC(tc.limit, runT, runTS, runS); !reflect.DeepEqual(c, out) {
					t.Errorf("SpliceResultsC = %v, SpliceResults at the default cuts = %v", c, out)
				}
			}
		})
	}
}

// BenchmarkSpliceResultsC is the splice every served SQE_C request ends
// with, over three k-deep runs that overlap by half.
func BenchmarkSpliceResultsC(b *testing.B) {
	for _, k := range []int{10, 1000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var runs [3][]search.Result
			for i := range runs {
				runs[i] = make([]search.Result, k)
				for j := range runs[i] {
					doc := i*k/2 + j
					runs[i][j] = search.Result{Doc: index.DocID(doc), Name: fmt.Sprintf("doc%06d", doc), Score: float64(-j)}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spliceSink = SpliceResultsC(k, runs[0], runs[1], runs[2])
			}
		})
	}
}

// spliceSink keeps the benchmarked splice from being optimised away.
var spliceSink []search.Result

func TestResultNames(t *testing.T) {
	rs := []search.Result{{Name: "a"}, {Name: "b"}}
	if got := ResultNames(rs); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("ResultNames = %v", got)
	}
}

func TestDescribeGraph(t *testing.T) {
	e, ids := expander(t)
	qg := e.BuildQueryGraph([]kb.NodeID{ids["Query Article"]}, motif.SetT)
	s := e.DescribeGraph(qg, 1)
	if !strings.Contains(s, "Query Article") || !strings.Contains(s, "2 expansion features") {
		t.Errorf("DescribeGraph = %q", s)
	}
}

// TestTitleLeafConcurrentFill races goroutines on cold title leaves:
// every caller gets the leaf a fresh expander builds, and once a slot
// is filled every later query shares the one cached leaf. A changed
// TitleWindowSlack builds the window leaf, and changing it back the
// phrase again. Under -race it is what checks the slots' publication
// (make race runs it ten times over).
func TestTitleLeafConcurrentFill(t *testing.T) {
	e, ids := expander(t)
	fresh, _ := expander(t)
	articles := []kb.NodeID{ids["Query Article"], ids["First Expansion"], ids["Second Expansion"]}
	const workers = 8
	got := make([][]search.Node, workers)
	start := make(chan struct{})
	done := make(chan int)
	for w := 0; w < workers; w++ {
		go func(w int) {
			<-start
			for i := 0; i < 50; i++ {
				for _, id := range articles {
					got[w] = append(got[w], e.titleNode(id))
				}
			}
			done <- w
		}(w)
	}
	close(start)
	for w := 0; w < workers; w++ {
		<-done
	}
	for w := range got {
		for i, n := range got[w] {
			if want := fresh.titleNode(articles[i%len(articles)]); !reflect.DeepEqual(n, want) {
				t.Fatalf("worker %d call %d: leaf %v, want %v", w, i, n, want)
			}
		}
	}
	for _, id := range articles {
		a, b := e.titleNode(id), e.titleNode(id)
		if p, ok := a.(search.Phrase); !ok || &p.Terms[0] != &b.(search.Phrase).Terms[0] {
			t.Fatalf("%s: leaf %v is not one shared phrase", e.graph.Title(id), a)
		}
	}
	e.TitleWindowSlack = 2
	if n, ok := e.titleNode(articles[0]).(search.Unordered); !ok || n.Width != len(n.Terms)+2 {
		t.Fatalf("slack 2: leaf %v, want a window of width len+2", n)
	}
	e.TitleWindowSlack = -1
	if _, ok := e.titleNode(articles[0]).(search.Phrase); !ok {
		t.Fatal("slack -1 again: leaf is not a phrase")
	}
}
