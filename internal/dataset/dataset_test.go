package dataset

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/kb"
	"repro/internal/wikigen"
)

// shared small world/instances for the whole test package; generation is
// deterministic so sharing is safe.
var (
	onceSmall sync.Once
	smWorld   *wikigen.World
	smIC      *Instance
	smC12     *Instance
	smC13     *Instance
)

func smallEnv(t *testing.T) (*wikigen.World, *Instance, *Instance, *Instance) {
	t.Helper()
	onceSmall.Do(func() {
		smWorld = wikigen.MustGenerate(wikigen.SmallConfig())
		var err error
		smIC, err = BuildImageCLEF(smWorld, ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		smC12, smC13, err = BuildCHiC(smWorld, ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
	})
	if smIC == nil || smC12 == nil || smC13 == nil {
		t.Fatal("environment failed to build")
	}
	return smWorld, smIC, smC12, smC13
}

func TestInstanceShape(t *testing.T) {
	_, ic, c12, c13 := smallEnv(t)
	icProfile := ImageCLEFProfile(ScaleSmall)
	if len(ic.Queries) != icProfile.QuerySets[0].NumQueries {
		t.Errorf("IC queries = %d", len(ic.Queries))
	}
	if ic.Index.NumDocs() != icProfile.NumDocs {
		t.Errorf("IC docs = %d, want %d", ic.Index.NumDocs(), icProfile.NumDocs)
	}
	// CHiC instances share one index.
	if c12.Index != c13.Index {
		t.Error("CHiC 2012/2013 must share their collection")
	}
	if ic.Index == c12.Index {
		t.Error("Image CLEF and CHiC must not share a collection")
	}
}

func TestQrelsConsistent(t *testing.T) {
	_, ic, _, _ := smallEnv(t)
	for _, q := range ic.Queries {
		rel := ic.Qrels[q.ID]
		if len(rel) != q.NumRelevant {
			t.Fatalf("%s: qrels %d != NumRelevant %d", q.ID, len(rel), q.NumRelevant)
		}
		for doc := range rel {
			// Every judged doc must exist in the index.
			found := false
			for d := 0; d < ic.Index.NumDocs(); d++ {
				if ic.Index.DocName(index.DocID(d)) == doc {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: judged doc %s not in index", q.ID, doc)
			}
			break // existence spot-check only; full scan is O(n²)
		}
	}
}

func TestZeroRelevantQueries(t *testing.T) {
	_, _, c12, c13 := smallEnv(t)
	p := CHiCProfile(ScaleSmall)
	count := func(in *Instance) int {
		n := 0
		for _, q := range in.Queries {
			if q.NumRelevant == 0 {
				n++
			}
		}
		return n
	}
	if got := count(c12); got != p.QuerySets[0].ZeroRelevantQueries {
		t.Errorf("CHiC 2012 zero-relevant queries = %d, want %d", got, p.QuerySets[0].ZeroRelevantQueries)
	}
	if got := count(c13); got != p.QuerySets[1].ZeroRelevantQueries {
		t.Errorf("CHiC 2013 zero-relevant queries = %d, want %d", got, p.QuerySets[1].ZeroRelevantQueries)
	}
}

func TestQueryTopicsDisjointWithinCollection(t *testing.T) {
	_, _, c12, c13 := smallEnv(t)
	seen := map[int]string{}
	for _, in := range []*Instance{c12, c13} {
		for _, q := range in.Queries {
			if prev, dup := seen[q.Topic]; dup {
				t.Fatalf("topic %d used by both %s and %s", q.Topic, prev, q.ID)
			}
			seen[q.Topic] = q.ID
		}
	}
}

func TestQueriesUseAliasVocabulary(t *testing.T) {
	w, ic, _, _ := smallEnv(t)
	for _, q := range ic.Queries {
		topic := &w.Topics[q.Topic]
		aliases := map[string]bool{}
		for _, a := range topic.AliasTerms {
			aliases[a] = true
		}
		for _, word := range strings.Fields(q.Text) {
			if !aliases[word] {
				t.Fatalf("%s: query word %q is not a topic alias", q.ID, word)
			}
		}
		if len(q.Entities) == 0 || q.Entities[0] != topic.Entity() {
			t.Fatalf("%s: first manual entity must be the topic entity", q.ID)
		}
	}
}

func TestGroundTruthProperties(t *testing.T) {
	w, ic, _, _ := smallEnv(t)
	nonEmpty := 0
	for _, q := range ic.Queries {
		gt := ic.GroundTruth[q.ID]
		if len(gt) > 0 {
			nonEmpty++
		}
		isEntity := map[kb.NodeID]bool{}
		for _, e := range q.Entities {
			isEntity[e] = true
		}
		prev := gt
		for i, f := range gt {
			if isEntity[f.Article] {
				t.Fatalf("%s: ground truth contains query node", q.ID)
			}
			if topic, ok := w.TopicOf(f.Article); !ok || topic != q.Topic {
				t.Fatalf("%s: ground-truth article from wrong topic", q.ID)
			}
			if i > 0 && prev[i-1].Weight < f.Weight {
				t.Fatalf("%s: ground truth not sorted by weight", q.ID)
			}
			if !strings.Contains(w.Graph.Title(f.Article), " ") {
				t.Fatalf("%s: single-word title %q in ground truth", q.ID, w.Graph.Title(f.Article))
			}
		}
	}
	if nonEmpty < len(ic.Queries)/2 {
		t.Errorf("only %d/%d queries have ground truth", nonEmpty, len(ic.Queries))
	}
}

func TestBuildDeterministic(t *testing.T) {
	w, ic, _, _ := smallEnv(t)
	again, err := BuildImageCLEF(w, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Queries) != len(ic.Queries) {
		t.Fatal("query counts differ")
	}
	for i := range again.Queries {
		if again.Queries[i].Text != ic.Queries[i].Text {
			t.Fatalf("query %d text differs", i)
		}
	}
	if again.Index.TotalTokens() != ic.Index.TotalTokens() {
		t.Error("collections differ between builds")
	}
}

func TestAvgRelevantNearProfile(t *testing.T) {
	_, ic, _, _ := smallEnv(t)
	p := ImageCLEFProfile(ScaleSmall)
	avg := ic.Qrels.AvgRelevant()
	if avg < p.QuerySets[0].MeanRelevant*0.5 || avg > p.QuerySets[0].MeanRelevant*1.5 {
		t.Errorf("avg relevant = %.1f, profile mean %.1f", avg, p.QuerySets[0].MeanRelevant)
	}
}

func TestBuildErrors(t *testing.T) {
	w, _, _, _ := smallEnv(t)
	if _, err := Build(w, CollectionProfile{Name: "empty"}); err == nil {
		t.Error("profile without query sets should error")
	}
	p := ImageCLEFProfile(ScaleSmall)
	p.QuerySets[0].NumQueries = len(w.Topics) + 1
	if _, err := Build(w, p); err == nil {
		t.Error("too many query topics should error")
	}
	p = ImageCLEFProfile(ScaleSmall)
	p.NumDocs = 10 // far below the relevant-doc demand
	if _, err := Build(w, p); err == nil {
		t.Error("tiny collection should error")
	}
}

func TestLinkerPrecisionBand(t *testing.T) {
	w, ic, _, _ := smallEnv(t)
	l := BuildLinker(w, DefaultLinkerOptions())
	var linked, gold [][]kb.NodeID
	for _, q := range ic.Queries {
		linked = append(linked, l.LinkArticles(q.Text))
		gold = append(gold, q.Entities)
	}
	// Paper: Dexter+Alchemy reach more than 80% precision. The linker
	// should land in a comparable band — well above chance, below
	// perfect (the ambiguity option injects real errors).
	// Note: gold contains only the manual entities, so same-topic
	// fallback links count as errors, making this a conservative bound.
	p := entityPrecision(linked, gold)
	if p < 0.55 || p > 1.0 {
		t.Errorf("linking precision = %.2f, want within (0.55, 1.0]", p)
	}
}

// entityPrecision mirrors entitylink.Precision without importing it (to
// keep this package's dependencies one-directional in tests).
func entityPrecision(linked, gold [][]kb.NodeID) float64 {
	var sum float64
	n := 0
	for i := range linked {
		if len(linked[i]) == 0 {
			continue
		}
		gs := map[kb.NodeID]bool{}
		for _, g := range gold[i] {
			gs[g] = true
		}
		c := 0
		for _, a := range linked[i] {
			if gs[a] {
				c++
			}
		}
		sum += float64(c) / float64(len(linked[i]))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestBuildWithSinkSeesEveryDocument(t *testing.T) {
	w, ic, _, _ := smallEnv(t)
	count := 0
	var firstName, firstText string
	ins, err := BuildWithSink(w, ImageCLEFProfile(ScaleSmall), func(name, text string) {
		if count == 0 {
			firstName, firstText = name, text
		}
		count++
		if name == "" || text == "" {
			t.Fatalf("empty doc from sink: %q %q", name, text)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != ins[0].Index.NumDocs() {
		t.Fatalf("sink saw %d docs, index has %d", count, ins[0].Index.NumDocs())
	}
	// Determinism: the sink-observed collection matches the plain build.
	if ins[0].Index.TotalTokens() != ic.Index.TotalTokens() {
		t.Error("sink build differs from plain build")
	}
	if firstName != ic.Index.DocName(0) {
		t.Errorf("first doc %s != %s", firstName, ic.Index.DocName(0))
	}
	_ = firstText
}
