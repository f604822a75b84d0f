package entitylink

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/kb"
)

func dict(t *testing.T) (*Dictionary, map[string]kb.NodeID) {
	t.Helper()
	b := kb.NewBuilder(8)
	ids := map[string]kb.NodeID{}
	for _, n := range []string{"Cable car", "Funicular", "San Francisco", "Car"} {
		id, err := b.AddArticle(n)
		if err != nil {
			t.Fatal(err)
		}
		ids[n] = id
	}
	_ = b.Build()
	d := NewDictionary(analysis.Analyzer{}) // no stemming: keeps surfaces literal
	d.AddTitle("Cable car", ids["Cable car"], 0.9)
	d.AddTitle("Funicular", ids["Funicular"], 0.8)
	d.AddTitle("San Francisco", ids["San Francisco"], 0.9)
	d.AddTitle("Car", ids["Car"], 0.3)
	return d, ids
}

func TestLinkLongestMatch(t *testing.T) {
	d, ids := dict(t)
	l := NewLinker(d)
	ms := l.Link("cable car in san francisco")
	if len(ms) != 2 {
		t.Fatalf("mentions = %+v", ms)
	}
	// "cable car" must win over the unigram "car".
	if ms[0].Article != ids["Cable car"] {
		t.Errorf("first mention = %v", ms[0])
	}
	if ms[1].Article != ids["San Francisco"] {
		t.Errorf("second mention = %v", ms[1])
	}
}

func TestLinkSingleWordAfterPhraseConsumed(t *testing.T) {
	d, ids := dict(t)
	l := NewLinker(d)
	ms := l.Link("car cable car")
	// First token "car" links Car; then "cable car" links Cable car.
	arts := []kb.NodeID{ms[0].Article, ms[1].Article}
	want := []kb.NodeID{ids["Car"], ids["Cable car"]}
	if !reflect.DeepEqual(arts, want) {
		t.Errorf("articles = %v, want %v", arts, want)
	}
}

func TestCommonnessDisambiguation(t *testing.T) {
	d := NewDictionary(analysis.Analyzer{})
	b := kb.NewBuilder(2)
	a1, _ := b.AddArticle("Sense one")
	a2, _ := b.AddArticle("Sense two")
	_ = b.Build()
	d.AddSurface("java", a1, 0.3)
	d.AddSurface("java", a2, 0.7)
	l := NewLinker(d)
	ms := l.Link("java")
	if len(ms) != 1 || ms[0].Article != a2 {
		t.Errorf("ambiguous surface resolved to %+v, want the 0.7 sense", ms)
	}
}

func TestFallbackRecognizer(t *testing.T) {
	d, ids := dict(t)
	l := NewLinker(d)
	// "francisco" alone is not a registered surface but is a title
	// unigram of San Francisco.
	ms := l.Link("francisco")
	if len(ms) != 1 || ms[0].Article != ids["San Francisco"] || !ms[0].Fallback {
		t.Errorf("fallback mention = %+v", ms)
	}
	l.DisableFallback = true
	if ms := l.Link("francisco"); len(ms) != 0 {
		t.Errorf("fallback disabled but linked %+v", ms)
	}
}

func TestFallbackThreshold(t *testing.T) {
	d, _ := dict(t)
	l := NewLinker(d)
	l.FallbackThreshold = 0.95 // above every candidate's commonness
	if ms := l.Link("francisco"); len(ms) != 0 {
		t.Errorf("threshold should suppress fallback, got %+v", ms)
	}
}

func TestLinkDeduplicates(t *testing.T) {
	d, _ := dict(t)
	l := NewLinker(d)
	ms := l.Link("funicular and funicular again funicular")
	if len(ms) != 1 {
		t.Errorf("duplicate mentions not deduplicated: %+v", ms)
	}
}

func TestLinkNothing(t *testing.T) {
	d, _ := dict(t)
	l := NewLinker(d)
	if ms := l.Link("completely unrelated words"); len(ms) != 0 {
		t.Errorf("linked %+v from unrelated text", ms)
	}
	if ms := l.Link(""); len(ms) != 0 {
		t.Errorf("linked %+v from empty text", ms)
	}
}

func TestLinkArticles(t *testing.T) {
	d, ids := dict(t)
	l := NewLinker(d)
	got := l.LinkArticles("funicular near san francisco")
	want := []kb.NodeID{ids["Funicular"], ids["San Francisco"]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LinkArticles = %v, want %v", got, want)
	}
}

func TestDictionaryNormalisesSurfaces(t *testing.T) {
	d := NewDictionary(analysis.Standard())
	b := kb.NewBuilder(1)
	a, _ := b.AddArticle("Cable car")
	_ = b.Build()
	d.AddTitle("Cable Cars", a, 1) // analyzed to "cabl car"
	l := NewLinker(d)
	if ms := l.Link("CABLE-CAR!"); len(ms) != 1 || ms[0].Article != a {
		t.Errorf("normalised surface failed: %+v", ms)
	}
	if d.NumSurfaces() == 0 {
		t.Error("NumSurfaces should be positive")
	}
}
