package index

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
)

// plainAnalyzer indexes without stopwords/stemming so tests can reason
// about exact terms.
var plainAnalyzer = analysis.Analyzer{}

func buildIndex(t *testing.T, docs ...string) *Index {
	t.Helper()
	b := NewBuilder(plainAnalyzer)
	for i, d := range docs {
		b.Add(docName(i), d)
	}
	return b.Build()
}

func docName(i int) string { return "D" + string(rune('0'+i)) }

// checkStoredStats holds every term's stored df and cf to its row.
func checkStoredStats(t *testing.T, label string, ix *Index) {
	t.Helper()
	for id := int32(0); id < int32(ix.NumTerms()); id++ {
		p := ix.PostingsByID(id)
		if df, cf := ix.StoredTermStats(id); df != len(p.Docs) || cf != p.CollectionFreq() {
			t.Fatalf("%s: term %q stored df=%d cf=%d, row df=%d cf=%d",
				label, ix.TermText(id), df, cf, len(p.Docs), p.CollectionFreq())
		}
	}
}

// TestStoredTermStats: the df and cf a built index, a seal of a live
// buffer and a v2 file store per term are their rows' sums, and a seal
// keeps its own while the buffer goes on counting.
func TestStoredTermStats(t *testing.T) {
	docs := segCorpus(60, 3)
	mono := monolithic(docs)
	checkStoredStats(t, "built", mono)
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := WriteFile(path, mono, FormatV2); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	checkStoredStats(t, "v2", v2)

	s := openSegForTest(t, 1000)
	ingestAll(t, s, docs[:30])
	sn := s.Acquire()
	defer sn.Release()
	seal := sn.Segment(sn.NumSegments() - 1)
	checkStoredStats(t, "seal", seal)
	ingestAll(t, s, docs[30:])
	checkStoredStats(t, "earlier seal after more ingests", seal)
	later := s.Acquire()
	defer later.Release()
	checkStoredStats(t, "later seal", later.Segment(later.NumSegments()-1))
}

func TestIndexCounts(t *testing.T) {
	ix := buildIndex(t, "red fish blue fish", "one fish", "nothing here")
	if ix.NumDocs() != 3 {
		t.Errorf("NumDocs = %d", ix.NumDocs())
	}
	if ix.TotalTokens() != 4+2+2 {
		t.Errorf("TotalTokens = %d", ix.TotalTokens())
	}
	if ix.DocLen(0) != 4 || ix.DocLen(2) != 2 {
		t.Error("DocLen wrong")
	}
	if ix.DocName(1) != "D1" {
		t.Errorf("DocName = %q", ix.DocName(1))
	}
	if ix.NumTerms() != 6 { // red fish blue one nothing here
		t.Errorf("NumTerms = %d", ix.NumTerms())
	}
}

func TestPostings(t *testing.T) {
	ix := buildIndex(t, "red fish blue fish", "one fish", "nothing here")
	p := ix.PostingsFor("fish")
	if p == nil {
		t.Fatal("no postings for fish")
	}
	if !reflect.DeepEqual(p.Docs, []DocID{0, 1}) {
		t.Errorf("Docs = %v", p.Docs)
	}
	if !reflect.DeepEqual(p.Freqs, []int32{2, 1}) {
		t.Errorf("Freqs = %v", p.Freqs)
	}
	if !reflect.DeepEqual(p.Positions[0], []int32{1, 3}) {
		t.Errorf("Positions = %v", p.Positions[0])
	}
	if p.CollectionFreq() != 3 {
		t.Errorf("CollectionFreq = %d", p.CollectionFreq())
	}
	if ix.PostingsFor("absent") != nil {
		t.Error("postings for absent term should be nil")
	}
}

func TestTermIDs(t *testing.T) {
	ix := buildIndex(t, "alpha beta")
	id, ok := ix.TermID("alpha")
	if !ok {
		t.Fatal("alpha missing")
	}
	if ix.TermText(id) != "alpha" {
		t.Error("TermText mismatch")
	}
	if _, ok := ix.TermID("gamma"); ok {
		t.Error("gamma should be missing")
	}
}

func TestCollectionProb(t *testing.T) {
	ix := buildIndex(t, "a a a b") // 4 tokens
	if got := ix.FloorProb(ix.PostingsFor("a").CollectionFreq()); got != 0.75 {
		t.Errorf("FloorProb(cf(a)) = %f", got)
	}
	// OOV floor: 0.5/|C|
	if got := ix.FloorProb(0); got != 0.5/4 {
		t.Errorf("FloorProb(0) = %f", got)
	}
}

func TestDocVector(t *testing.T) {
	ix := buildIndex(t, "x y x", "y z")
	v := ix.DocVector(0)
	got := map[string]int32{}
	for _, tf := range v {
		got[ix.TermText(tf.Term)] = tf.Freq
	}
	want := map[string]int32{"x": 2, "y": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DocVector(0) = %v, want %v", got, want)
	}
	if len(ix.DocVector(1)) != 2 {
		t.Error("DocVector(1) wrong size")
	}
}

func TestPhrasePostingsExact(t *testing.T) {
	ix := buildIndex(t,
		"the cable car climbs", // positions: the0 cable1 car2 climbs3
		"car cable",            // reversed: no match
		"cable car cable car",  // two matches
		"cable x car",          // gap: no match
	)
	p := ix.PhrasePostings([]string{"cable", "car"})
	if !reflect.DeepEqual(p.Docs, []DocID{0, 2}) {
		t.Fatalf("phrase docs = %v", p.Docs)
	}
	if !reflect.DeepEqual(p.Freqs, []int32{1, 2}) {
		t.Errorf("phrase freqs = %v", p.Freqs)
	}
	if !reflect.DeepEqual(p.Positions[1], []int32{0, 2}) {
		t.Errorf("phrase positions = %v", p.Positions[1])
	}
}

func TestPhrasePostingsEdgeCases(t *testing.T) {
	ix := buildIndex(t, "a b c")
	if got := ix.PhrasePostings(nil); len(got.Docs) != 0 {
		t.Error("empty phrase should have no postings")
	}
	// Single term phrase = term postings.
	p := ix.PhrasePostings([]string{"b"})
	if !reflect.DeepEqual(p.Docs, []DocID{0}) {
		t.Error("single-term phrase should equal term postings")
	}
	// OOV constituent kills the phrase.
	if got := ix.PhrasePostings([]string{"a", "zzz"}); len(got.Docs) != 0 {
		t.Error("OOV constituent should empty the phrase")
	}
	// Trigram.
	p3 := ix.PhrasePostings([]string{"a", "b", "c"})
	if !reflect.DeepEqual(p3.Docs, []DocID{0}) {
		t.Error("trigram should match")
	}
}

func TestPhraseAcrossManyDocs(t *testing.T) {
	b := NewBuilder(plainAnalyzer)
	for i := 0; i < 200; i++ {
		if i%7 == 0 {
			b.Add(docName(i%10)+"x", "prefix alpha beta suffix")
		} else {
			b.Add(docName(i%10)+"y", "alpha gamma beta")
		}
	}
	ix := b.Build()
	p := ix.PhrasePostings([]string{"alpha", "beta"})
	want := 0
	for i := 0; i < 200; i++ {
		if i%7 == 0 {
			want++
		}
	}
	if len(p.Docs) != want {
		t.Errorf("phrase matched %d docs, want %d", len(p.Docs), want)
	}
}

func TestAdvanceGalloping(t *testing.T) {
	docs := make([]DocID, 1000)
	for i := range docs {
		docs[i] = DocID(i * 3)
	}
	for _, tc := range []struct {
		cursor int
		target DocID
		want   int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 1},
		{0, 2997, 999},
		{500, 1502, 501},
		{0, 5000, 1000}, // past the end
	} {
		if got := advance(docs, tc.cursor, tc.target); got != tc.want {
			t.Errorf("advance(cursor=%d, target=%d) = %d, want %d", tc.cursor, tc.target, got, tc.want)
		}
	}
}

// Property: phrase postings are a subset of every constituent's postings
// and phrase frequency never exceeds the min constituent frequency.
func TestPhraseSubsetProperty(t *testing.T) {
	words := []string{"a", "b", "c", "d"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(plainAnalyzer)
		for d := 0; d < 20; d++ {
			n := 1 + rng.Intn(12)
			var sb strings.Builder
			for i := 0; i < n; i++ {
				sb.WriteString(words[rng.Intn(len(words))])
				sb.WriteByte(' ')
			}
			b.Add(docName(d%10), sb.String())
		}
		ix := b.Build()
		phrase := []string{"a", "b"}
		p := ix.PhrasePostings(phrase)
		for i, doc := range p.Docs {
			for _, term := range phrase {
				tp := ix.PostingsFor(term)
				row := findRow(tp.Docs, doc)
				if row < 0 {
					return false
				}
				if p.Freqs[i] > tp.Freqs[row] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func findRow(docs []DocID, d DocID) int {
	for i, x := range docs {
		if x == d {
			return i
		}
	}
	return -1
}

// Property: sum of DocLens equals TotalTokens; collection freq of every
// term sums to TotalTokens.
func TestIndexAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(plainAnalyzer)
		words := []string{"w1", "w2", "w3", "w4", "w5"}
		for d := 0; d < 15; d++ {
			var sb strings.Builder
			for i := 0; i < rng.Intn(20); i++ {
				sb.WriteString(words[rng.Intn(len(words))] + " ")
			}
			b.Add(docName(d%10), sb.String())
		}
		ix := b.Build()
		var sumLens int64
		for d := 0; d < ix.NumDocs(); d++ {
			sumLens += int64(ix.DocLen(DocID(d)))
		}
		if sumLens != ix.TotalTokens() {
			return false
		}
		var sumCF int64
		for _, w := range words {
			if p := ix.PostingsFor(w); p != nil {
				sumCF += p.CollectionFreq()
			}
		}
		return sumCF == ix.TotalTokens()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
