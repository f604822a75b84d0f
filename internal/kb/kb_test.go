package kb

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// buildTestGraph constructs the running example used across this file:
//
//	articles:  A, B, C, H
//	categories: C1 (domain), C2 (topic, child of C1), C3 (facet, child of C1)
//	links: A↔B, A→C, C→A, B→H
//	memberships: A∈{C2,C3}, B∈{C2,C3}, C∈{C2}, H∈{C1}
func buildTestGraph(t testing.TB) (*Graph, map[string]NodeID) {
	t.Helper()
	b := NewBuilder(8)
	ids := map[string]NodeID{}
	add := func(name string, article bool) {
		var id NodeID
		var err error
		if article {
			id, err = b.AddArticle(name)
		} else {
			id, err = b.AddCategory(name)
		}
		if err != nil {
			t.Fatalf("add %s: %v", name, err)
		}
		ids[name] = id
	}
	for _, a := range []string{"A", "B", "C", "H"} {
		add(a, true)
	}
	for _, c := range []string{"C1", "C2", "C3"} {
		add(c, false)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.AddLink(ids["A"], ids["B"]))
	must(b.AddLink(ids["B"], ids["A"]))
	must(b.AddLink(ids["A"], ids["C"]))
	must(b.AddLink(ids["C"], ids["A"]))
	must(b.AddLink(ids["B"], ids["H"]))
	must(b.AddMembership(ids["A"], ids["C2"]))
	must(b.AddMembership(ids["A"], ids["C3"]))
	must(b.AddMembership(ids["B"], ids["C2"]))
	must(b.AddMembership(ids["B"], ids["C3"]))
	must(b.AddMembership(ids["C"], ids["C2"]))
	must(b.AddMembership(ids["H"], ids["C1"]))
	must(b.AddContainment(ids["C1"], ids["C2"]))
	must(b.AddContainment(ids["C1"], ids["C3"]))
	return b.Build(), ids
}

func TestGraphBasics(t *testing.T) {
	g, ids := buildTestGraph(t)
	if g.NumNodes() != 7 || g.NumArticles() != 4 || g.NumCategories() != 3 {
		t.Fatalf("counts = %d/%d/%d, want 7/4/3", g.NumNodes(), g.NumArticles(), g.NumCategories())
	}
	if g.Kind(ids["A"]) != KindArticle || g.Kind(ids["C1"]) != KindCategory {
		t.Error("wrong node kinds")
	}
	if g.Title(ids["B"]) != "B" {
		t.Errorf("Title = %q", g.Title(ids["B"]))
	}
	if g.ByTitle("C") != ids["C"] {
		t.Error("ByTitle failed")
	}
	if g.ByTitle("missing") != Invalid {
		t.Error("ByTitle of missing title should be Invalid")
	}
}

func TestGraphLinks(t *testing.T) {
	g, ids := buildTestGraph(t)
	if !g.HasLink(ids["A"], ids["B"]) || !g.HasLink(ids["B"], ids["A"]) {
		t.Error("A↔B links missing")
	}
	if g.HasLink(ids["H"], ids["B"]) {
		t.Error("unexpected H→B link")
	}
	if !g.Reciprocal(ids["A"], ids["B"]) || !g.Reciprocal(ids["A"], ids["C"]) {
		t.Error("reciprocal pairs not detected")
	}
	if g.Reciprocal(ids["B"], ids["H"]) {
		t.Error("B-H should not be reciprocal")
	}
	out := g.OutLinks(ids["A"])
	if len(out) != 2 {
		t.Errorf("OutLinks(A) = %v", out)
	}
	in := g.InLinks(ids["A"])
	if len(in) != 2 {
		t.Errorf("InLinks(A) = %v", in)
	}
	if len(g.InLinks(ids["H"])) != 1 {
		t.Errorf("InLinks(H) = %v", g.InLinks(ids["H"]))
	}
}

func TestGraphCategories(t *testing.T) {
	g, ids := buildTestGraph(t)
	if !g.InCategory(ids["A"], ids["C2"]) || g.InCategory(ids["A"], ids["C1"]) {
		t.Error("InCategory wrong")
	}
	cats := g.Categories(ids["A"])
	want := []NodeID{ids["C2"], ids["C3"]}
	if !reflect.DeepEqual(cats, want) {
		t.Errorf("Categories(A) = %v, want %v", cats, want)
	}
	members := g.Members(ids["C2"])
	if len(members) != 3 {
		t.Errorf("Members(C2) = %v", members)
	}
	if !g.IsParentCategory(ids["C1"], ids["C2"]) {
		t.Error("C1 should be parent of C2")
	}
	if g.IsParentCategory(ids["C2"], ids["C1"]) {
		t.Error("containment is directed")
	}
	if len(g.ChildCategories(ids["C1"])) != 2 {
		t.Errorf("ChildCategories(C1) = %v", g.ChildCategories(ids["C1"]))
	}
	if len(g.ParentCategories(ids["C2"])) != 1 {
		t.Errorf("ParentCategories(C2) = %v", g.ParentCategories(ids["C2"]))
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(4)
	a, _ := b.AddArticle("A")
	c, _ := b.AddCategory("Category:X")
	if _, err := b.AddArticle(""); err == nil {
		t.Error("empty title should error")
	}
	if _, err := b.AddCategory("A"); err == nil {
		t.Error("kind conflict should error")
	}
	if err := b.AddLink(a, a); err == nil {
		t.Error("self link should error")
	}
	if err := b.AddLink(a, c); err == nil {
		t.Error("article→category hyperlink should error")
	}
	if err := b.AddMembership(c, c); err == nil {
		t.Error("category membership of category should error")
	}
	if err := b.AddContainment(c, c); err == nil {
		t.Error("self containment should error")
	}
	if err := b.AddContainment(a, c); err == nil {
		t.Error("article as containment parent should error")
	}
	if err := b.AddLink(a, NodeID(99)); err == nil {
		t.Error("out-of-range node should error")
	}
}

func TestBuilderDedupesTitles(t *testing.T) {
	b := NewBuilder(2)
	a1, _ := b.AddArticle("Same")
	a2, _ := b.AddArticle("Same")
	if a1 != a2 {
		t.Errorf("duplicate title returned new node: %d vs %d", a1, a2)
	}
}

func TestParallelEdgesDeduped(t *testing.T) {
	b := NewBuilder(2)
	a, _ := b.AddArticle("A")
	c, _ := b.AddArticle("B")
	for i := 0; i < 5; i++ {
		if err := b.AddLink(a, c); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if got := g.OutLinks(a); len(got) != 1 {
		t.Errorf("OutLinks after parallel edges = %v, want 1 entry", got)
	}
}

func TestComputeStats(t *testing.T) {
	g, _ := buildTestGraph(t)
	s := ComputeStats(g)
	want := Stats{
		Articles:             4,
		Categories:           3,
		ArticleLinks:         5,
		CategoryLinks:        2,
		ArticleCategoryLinks: 6,
		ReciprocalPairs:      2, // A↔B and A↔C
	}
	if s != want {
		t.Errorf("ComputeStats = %+v, want %+v", s, want)
	}
	if s.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestKindString(t *testing.T) {
	if KindArticle.String() != "article" || KindCategory.String() != "category" {
		t.Error("NodeKind.String wrong")
	}
	if NodeKind(9).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestAccessorsPanicOnWrongKind(t *testing.T) {
	g, ids := buildTestGraph(t)
	defer func() {
		if recover() == nil {
			t.Error("OutLinks on a category should panic")
		}
	}()
	g.OutLinks(ids["C1"])
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g, _ := buildTestGraph(t)
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a graph"))); err == nil {
		t.Error("garbage should not decode")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should not decode")
	}
	// Valid magic, truncated body.
	if _, err := Decode(bytes.NewReader(magic)); err == nil {
		t.Error("truncated input should not decode")
	}
}

// TestDecodeDeduplicatesRepeatedTarget: a hand-built encoding whose
// link row repeats a target (a delta of 0) decodes with the repeat
// removed, as the Builder removes a parallel edge.
func TestDecodeDeduplicatesRepeatedTarget(t *testing.T) {
	data := append([]byte(nil), magic...)
	data = append(data, 3) // three nodes, all articles
	for _, title := range []string{"A", "B", "C"} {
		data = append(data, byte(KindArticle), 1, title[0])
	}
	data = append(data,
		3,          // links: three rows
		3, 1, 0, 1, // A: targets 1, 1 (delta 0), 2
		1, 0, //       B: target 0
		0, //          C: none
		0, // membership: no rows
		0, // containment: no rows
	)
	g, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.OutLinks(0); !reflect.DeepEqual(got, []NodeID{1, 2}) {
		t.Fatalf("OutLinks(A) = %v, want [1 2]", got)
	}
	for a, want := range [][]NodeID{{1}, {0}, {0}} {
		if got := g.InLinks(NodeID(a)); !reflect.DeepEqual(got, want) {
			t.Fatalf("InLinks(%d) = %v, want %v", a, got, want)
		}
	}
	if g.linkOut.numEdges() != 3 || g.linkIn.numEdges() != 3 {
		t.Fatalf("edges out/in = %d/%d, want 3/3", g.linkOut.numEdges(), g.linkIn.numEdges())
	}
}

// assertGraphsEqual compares two graphs exhaustively.
func assertGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumArticles() != b.NumArticles() || a.NumCategories() != b.NumCategories() {
		t.Fatalf("node counts differ: %d/%d/%d vs %d/%d/%d",
			a.NumNodes(), a.NumArticles(), a.NumCategories(),
			b.NumNodes(), b.NumArticles(), b.NumCategories())
	}
	for id := NodeID(0); int(id) < a.NumNodes(); id++ {
		if a.Kind(id) != b.Kind(id) || a.Title(id) != b.Title(id) {
			t.Fatalf("node %d differs", id)
		}
		if a.Kind(id) == KindArticle {
			if !reflect.DeepEqual(a.OutLinks(id), b.OutLinks(id)) {
				t.Fatalf("OutLinks(%d) differ: %v vs %v", id, a.OutLinks(id), b.OutLinks(id))
			}
			if !reflect.DeepEqual(a.Categories(id), b.Categories(id)) {
				t.Fatalf("Categories(%d) differ", id)
			}
		} else {
			if !reflect.DeepEqual(a.ParentCategories(id), b.ParentCategories(id)) {
				t.Fatalf("ParentCategories(%d) differ", id)
			}
		}
	}
}

// randomGraph builds a random valid graph for property tests.
func randomGraph(rng *rand.Rand) *Graph {
	nArt := 2 + rng.Intn(20)
	nCat := 1 + rng.Intn(8)
	b := NewBuilder(nArt + nCat)
	arts := make([]NodeID, nArt)
	cats := make([]NodeID, nCat)
	for i := range arts {
		arts[i], _ = b.AddArticle(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	for i := range cats {
		cats[i], _ = b.AddCategory("Category:" + string(rune('A'+i)))
	}
	for i := 0; i < nArt*3; i++ {
		from, to := arts[rng.Intn(nArt)], arts[rng.Intn(nArt)]
		if from != to {
			_ = b.AddLink(from, to)
		}
	}
	for i := 0; i < nArt*2; i++ {
		_ = b.AddMembership(arts[rng.Intn(nArt)], cats[rng.Intn(nCat)])
	}
	for i := 0; i < nCat; i++ {
		p, c := cats[rng.Intn(nCat)], cats[rng.Intn(nCat)]
		if p != c {
			_ = b.AddContainment(p, c)
		}
	}
	return b.Build()
}

// Property: adjacency rows are always sorted and duplicate-free, and
// forward/reverse relations agree.
func TestGraphAdjacencyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		ok := true
		g.Articles(func(a NodeID) bool {
			out := g.OutLinks(a)
			for i := 1; i < len(out); i++ {
				if out[i-1] >= out[i] {
					ok = false
				}
			}
			for _, to := range out {
				found := false
				for _, back := range g.InLinks(to) {
					if back == a {
						found = true
					}
				}
				if !found {
					ok = false
				}
			}
			for _, c := range g.Categories(a) {
				found := false
				for _, m := range g.Members(c) {
					if m == a {
						found = true
					}
				}
				if !found {
					ok = false
				}
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: encode/decode is the identity on random graphs.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if err := Encode(&buf, g); err != nil {
			return false
		}
		g2, err := Decode(&buf)
		if err != nil {
			return false
		}
		if g.NumNodes() != g2.NumNodes() {
			return false
		}
		for id := NodeID(0); int(id) < g.NumNodes(); id++ {
			if g.Title(id) != g2.Title(id) || g.Kind(id) != g2.Kind(id) {
				return false
			}
			if g.Kind(id) == KindArticle && !reflect.DeepEqual(g.OutLinks(id), g2.OutLinks(id)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCSRRowNegativeID is the regression test for csr.row panicking on a
// negative NodeID: a bogus entity-link result (kb.Invalid) reaching any
// adjacency accessor must see an empty row, not an out-of-bounds slice.
func TestCSRRowNegativeID(t *testing.T) {
	g, _ := buildTestGraph(t)
	for _, id := range []NodeID{Invalid, -5} {
		for name, c := range map[string]*csr{
			"linkOut": &g.linkOut, "linkIn": &g.linkIn,
			"memberOf": &g.memberOf, "members": &g.members,
			"parents": &g.parents, "children": &g.children,
		} {
			if row := c.row(id); row != nil {
				t.Errorf("%s.row(%d) = %v, want nil", name, id, row)
			}
		}
	}
}
