package motif

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/kb"
	"repro/internal/wikigen"
)

// matcherSettings are the matcher configurations the root package's
// expansion-cache parity test runs (parityAblations): the paper's, the
// single-link ablation and the no-category ablation. Its fourth
// ablation changes only the expander, so its matcher is the paper's.
var matcherSettings = []struct {
	name                      string
	reciprocal, useCategories bool
}{
	{"paper-defaults", true, true},
	{"single-link", false, true},
	{"no-categories", true, false},
}

var allSets = []Set{SetT, SetTS, SetS}

var (
	defaultWorldOnce sync.Once
	defaultWorld     *wikigen.World
)

// theDefaultWorld is the world benches and experiments run on.
func theDefaultWorld(t testing.TB) *wikigen.World {
	t.Helper()
	defaultWorldOnce.Do(func() { defaultWorld = wikigen.MustGenerate(wikigen.DefaultConfig()) })
	return defaultWorld
}

func articlesOf(g *kb.Graph) []kb.NodeID {
	var arts []kb.NodeID
	for id := 0; id < g.NumNodes(); id++ {
		if g.Kind(kb.NodeID(id)) == kb.KindArticle {
			arts = append(arts, kb.NodeID(id))
		}
	}
	return arts
}

func checkExpand(t *testing.T, m *Matcher, qn []kb.NodeID, set Set) {
	t.Helper()
	got, want := m.Expand(qn, set), referenceExpand(m, qn, set)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reciprocal=%v categories=%v set %v nodes %v:\n got %v\nwant %v",
			m.RequireReciprocal, m.UseCategories, set, qn, got, want)
	}
}

// TestRowsMatchScanEveryArticle: on the default world, expanding every
// article alone under every set and matcher setting equals
// referenceExpand.
func TestRowsMatchScanEveryArticle(t *testing.T) {
	g := theDefaultWorld(t).Graph
	arts := articlesOf(g)
	for _, ms := range matcherSettings {
		t.Run(ms.name, func(t *testing.T) {
			m := NewMatcher(g)
			m.RequireReciprocal, m.UseCategories = ms.reciprocal, ms.useCategories
			for _, set := range allSets {
				for _, a := range arts {
					checkExpand(t, m, []kb.NodeID{a}, set)
				}
			}
		})
	}
}

// randomNodes draws 1–3 query nodes from the default world: mostly
// articles, with duplicates, invalid IDs and category nodes mixed in.
func randomNodes(rng *rand.Rand, g *kb.Graph, arts []kb.NodeID) []kb.NodeID {
	qn := make([]kb.NodeID, 1+rng.Intn(3))
	for i := range qn {
		switch r := rng.Intn(10); {
		case r == 0 && i > 0:
			qn[i] = qn[rng.Intn(i)]
		case r == 1:
			qn[i] = kb.Invalid
		case r == 2:
			qn[i] = kb.NodeID(rng.Intn(g.NumNodes())) // often a category
		default:
			qn[i] = arts[rng.Intn(len(arts))]
		}
	}
	return qn
}

// TestRowsMatchScanRandomDraws: random 1-, 2- and 3-node queries, rows
// warm or cold, equal referenceExpand under every set and matcher
// setting. Drawing neighbours of one another makes the query-node
// exclusion bite.
func TestRowsMatchScanRandomDraws(t *testing.T) {
	g := theDefaultWorld(t).Graph
	arts := articlesOf(g)
	rng := rand.New(rand.NewSource(1))
	for _, ms := range matcherSettings {
		m := NewMatcher(g)
		m.RequireReciprocal, m.UseCategories = ms.reciprocal, ms.useCategories
		for i := 0; i < 3000; i++ {
			qn := randomNodes(rng, g, arts)
			if out := g.OutLinks(arts[rng.Intn(len(arts))]); rng.Intn(2) == 0 && len(out) > 0 {
				qn = append(qn, out[rng.Intn(len(out))])
			}
			checkExpand(t, m, qn, allSets[i%len(allSets)])
		}
	}
}

// TestRowsFollowAblationFlips: flipping the switches back and forth on
// one Matcher serves each setting's own rows, never another's.
func TestRowsFollowAblationFlips(t *testing.T) {
	g := theDefaultWorld(t).Graph
	arts := articlesOf(g)
	rng := rand.New(rand.NewSource(2))
	m := NewMatcher(g)
	for i := 0; i < 400; i++ {
		ms := matcherSettings[rng.Intn(len(matcherSettings))]
		m.RequireReciprocal, m.UseCategories = ms.reciprocal, ms.useCategories
		// A small pool of articles, so most rows are warm from an
		// earlier setting when the next one asks for them.
		qn := []kb.NodeID{arts[rng.Intn(16)], arts[rng.Intn(16)]}
		checkExpand(t, m, qn, allSets[rng.Intn(len(allSets))])
	}
}

// TestRowsConcurrentColdFill: goroutines that share one cold Matcher
// and race to build the same rows all get referenceExpand's answer (run
// under -race by `make race`).
func TestRowsConcurrentColdFill(t *testing.T) {
	g := theDefaultWorld(t).Graph
	arts := articlesOf(g)[:400]
	ref := NewMatcher(g)
	want := make([][]Match, len(arts))
	for i, a := range arts {
		want[i] = referenceExpand(ref, []kb.NodeID{a, arts[(i+1)%len(arts)]}, SetTS)
	}
	m := NewMatcher(g)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(len(arts)) {
				got := m.Expand([]kb.NodeID{arts[i], arts[(i+1)%len(arts)]}, SetTS)
				if !reflect.DeepEqual(got, want[i]) {
					errs <- "worker saw a row that differs from referenceExpand"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
