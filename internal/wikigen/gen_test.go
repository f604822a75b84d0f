package wikigen

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/kb"
)

func small(t *testing.T) *World {
	t.Helper()
	w, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateDeterministic(t *testing.T) {
	w1 := small(t)
	w2 := small(t)
	s1 := kb.ComputeStats(w1.Graph)
	s2 := kb.ComputeStats(w2.Graph)
	if s1 != s2 {
		t.Errorf("same config, different graphs: %+v vs %+v", s1, s2)
	}
	if len(w1.Topics) != len(w2.Topics) {
		t.Fatal("topic counts differ")
	}
	for i := range w1.Topics {
		if !reflect.DeepEqual(w1.Topics[i].CoreTerms, w2.Topics[i].CoreTerms) {
			t.Fatalf("topic %d core terms differ", i)
		}
	}
}

func TestGenerateSeedChangesWorld(t *testing.T) {
	cfg := SmallConfig()
	w1 := MustGenerate(cfg)
	cfg.Seed = 999
	w2 := MustGenerate(cfg)
	if kb.ComputeStats(w1.Graph) == kb.ComputeStats(w2.Graph) {
		t.Error("different seeds produced identical stats (vanishingly unlikely)")
	}
}

func TestWorldShape(t *testing.T) {
	cfg := SmallConfig()
	w := small(t)
	if len(w.Domains) != cfg.Domains {
		t.Errorf("domains = %d", len(w.Domains))
	}
	if len(w.Topics) != cfg.NumTopics() {
		t.Errorf("topics = %d", len(w.Topics))
	}
	if len(w.Hubs) != cfg.HubArticles {
		t.Errorf("hubs = %d, want %d", len(w.Hubs), cfg.HubArticles)
	}
	for _, tp := range w.Topics {
		if len(tp.Articles) < 2 {
			t.Fatalf("topic %d has %d articles", tp.ID, len(tp.Articles))
		}
		if len(tp.CoreTerms) != cfg.CoreTermsPerTopic {
			t.Fatalf("topic %d core terms = %d", tp.ID, len(tp.CoreTerms))
		}
		if len(tp.AliasTerms) != cfg.AliasTermsPerTopic {
			t.Fatalf("topic %d alias terms = %d", tp.ID, len(tp.AliasTerms))
		}
		if w.Graph.Kind(tp.Entity()) != kb.KindArticle {
			t.Fatal("entity is not an article")
		}
		if w.Graph.Kind(tp.Category) != kb.KindCategory {
			t.Fatal("topic category is not a category")
		}
	}
}

func TestTopicOf(t *testing.T) {
	w := small(t)
	for ti := range w.Topics {
		for _, a := range w.Topics[ti].Articles {
			got, ok := w.TopicOf(a)
			if !ok || got != ti {
				t.Fatalf("TopicOf(%d) = %d,%v want %d", a, got, ok, ti)
			}
		}
	}
	// Hubs belong to no topic.
	for _, h := range w.Hubs {
		if _, ok := w.TopicOf(h); ok {
			t.Fatal("hub has a topic")
		}
	}
}

func TestArticlesBelongToTopicCategory(t *testing.T) {
	w := small(t)
	for _, tp := range w.Topics {
		for _, a := range tp.Articles {
			if !w.Graph.InCategory(a, tp.Category) {
				t.Fatalf("article %q not in its topic category", w.Graph.Title(a))
			}
		}
	}
}

func TestCategoryHierarchy(t *testing.T) {
	w := small(t)
	for _, tp := range w.Topics {
		dom := w.Domains[tp.Domain]
		if !w.Graph.IsParentCategory(dom.Category, tp.Category) {
			t.Fatalf("topic category %q not under its domain", w.Graph.Title(tp.Category))
		}
		if tp.Subtopic != kb.Invalid && !w.Graph.IsParentCategory(tp.Category, tp.Subtopic) {
			t.Fatal("subtopic not under topic category")
		}
	}
	for _, d := range w.Domains {
		for _, f := range d.Facets {
			if !w.Graph.IsParentCategory(d.Category, f) {
				t.Fatal("facet not under domain category")
			}
		}
	}
}

func TestEntityHasExactlyOneFacet(t *testing.T) {
	w := small(t)
	for _, tp := range w.Topics {
		cats := w.Graph.Categories(tp.Entity())
		facets := 0
		for _, c := range cats {
			for _, f := range w.Domains[tp.Domain].Facets {
				if c == f {
					facets++
				}
			}
		}
		if facets != 1 {
			t.Fatalf("entity of topic %d has %d facets, want 1", tp.ID, facets)
		}
	}
}

func TestIntraTopicReciprocity(t *testing.T) {
	// The generated graph must contain substantially more reciprocal
	// pairs within topics than across topics — the structural premise of
	// the motifs.
	w := small(t)
	intra, cross := 0, 0
	w.Graph.Articles(func(a kb.NodeID) bool {
		ta, aok := w.TopicOf(a)
		for _, b := range w.Graph.OutLinks(a) {
			if b <= a || !w.Graph.HasLink(b, a) {
				continue
			}
			tb, bok := w.TopicOf(b)
			if aok && bok && ta == tb {
				intra++
			} else {
				cross++
			}
		}
		return true
	})
	if intra == 0 || cross == 0 {
		t.Fatalf("degenerate link structure: intra=%d cross=%d", intra, cross)
	}
	if intra < cross {
		t.Errorf("intra-topic reciprocal pairs (%d) should dominate cross-topic (%d)", intra, cross)
	}
}

func TestHubMemberships(t *testing.T) {
	cfg := SmallConfig()
	w := small(t)
	for _, h := range w.Hubs {
		cats := w.Graph.Categories(h)
		if len(cats) != cfg.HubDomainMemberships {
			t.Fatalf("hub %q has %d categories, want %d", w.Graph.Title(h), len(cats), cfg.HubDomainMemberships)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Domains = 0 },
		func(c *Config) { c.TopicsPerDomain = -1 },
		func(c *Config) { c.ArticlesPerTopic = 1 },
		func(c *Config) { c.CoreTermsPerTopic = 1 },
		func(c *Config) { c.AliasTermsPerTopic = 0 },
		func(c *Config) { c.BackgroundTerms = 5 },
		func(c *Config) { c.FacetsPerDomain = 0 },
		func(c *Config) { c.MaxFacetsPerArticle = -1 },
		func(c *Config) { c.SubtopicFraction = 1.5 },
		func(c *Config) { c.DomainDirectFraction = -0.1 },
		func(c *Config) { c.IntraReciprocalProb = 2 },
		func(c *Config) { c.CrossReciprocalProb = -1 },
		func(c *Config) { c.HubArticles = -1 },
		func(c *Config) { c.HubLinkProb = 1.5 },
		func(c *Config) { c.HubReciprocalProb = -0.5 },
	}
	for i, mutate := range bad {
		cfg := SmallConfig()
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestVocabUnique(t *testing.T) {
	v := NewVocab(rand.New(rand.NewSource(1)))
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		w := v.Word()
		if w == "" {
			t.Fatal("empty word")
		}
		if seen[w] {
			t.Fatalf("duplicate word %q", w)
		}
		seen[w] = true
	}
	if len(v.seen) != 5000 {
		t.Errorf("%d words issued, want 5000", len(v.seen))
	}
}

func TestVocabWordsLowercaseASCII(t *testing.T) {
	v := NewVocab(rand.New(rand.NewSource(2)))
	f := func(_ int) bool {
		w := v.Word()
		for i := 0; i < len(w); i++ {
			if w[i] < 'a' || w[i] > 'z' {
				return false
			}
		}
		return len(w) >= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDescribe(t *testing.T) {
	w := small(t)
	if w.Describe() == "" {
		t.Error("Describe empty")
	}
}

func TestOntologyConfigGenerates(t *testing.T) {
	cfg := OntologyConfig()
	// Shrink to test size while keeping the profile's shape.
	cfg.Domains = 4
	cfg.TopicsPerDomain = 5
	cfg.ArticlesPerTopic = 10
	cfg.BackgroundTerms = 300
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The taxonomy profile: every topic has a subtopic category.
	for _, tp := range w.Topics {
		if tp.Subtopic == kb.Invalid {
			t.Fatalf("topic %d missing subtopic under OntologyConfig", tp.ID)
		}
	}
	// Sparser reciprocity than the default profile.
	st := kb.ComputeStats(w.Graph)
	if st.ReciprocalPairs == 0 || st.ReciprocalPairs >= st.ArticleLinks {
		t.Errorf("implausible reciprocity: %+v", st)
	}
}

func TestMustGeneratePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGenerate should panic on invalid config")
		}
	}()
	cfg := SmallConfig()
	cfg.Domains = 0
	MustGenerate(cfg)
}

func TestGenerateWithoutHubs(t *testing.T) {
	cfg := SmallConfig()
	cfg.HubArticles = 0
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Hubs) != 0 {
		t.Errorf("hubs = %d, want 0", len(w.Hubs))
	}
	// The graph must still be fully functional.
	if kb.ComputeStats(w.Graph).Articles == 0 {
		t.Error("no articles generated")
	}
}

func TestHubDomainMembershipFloor(t *testing.T) {
	cfg := SmallConfig()
	cfg.HubArticles = 3
	cfg.HubDomainMemberships = 0 // must floor to 1
	w := MustGenerate(cfg)
	for _, h := range w.Hubs {
		if len(w.Graph.Categories(h)) < 1 {
			t.Fatal("hub with no domain membership")
		}
	}
}

func TestExplicitCoreTermPool(t *testing.T) {
	cfg := SmallConfig()
	cfg.CoreTermPool = cfg.CoreTermsPerTopic // minimal legal pool
	w := MustGenerate(cfg)
	// With a pool exactly one topic wide, every topic shares the same
	// term set (maximum ambiguity) — generation must still succeed with
	// unique titles.
	titles := map[string]bool{}
	w.Graph.Articles(func(a kb.NodeID) bool {
		title := w.Graph.Title(a)
		if titles[title] {
			t.Fatalf("duplicate title %q", title)
		}
		titles[title] = true
		return true
	})
}
