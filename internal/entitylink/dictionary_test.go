package entitylink_test

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/entitylink"
	"repro/internal/wikigen"
)

// TestOnePassDictionaryMatchesTwoPass: the dictionary dataset.BuildLinker
// builds for the default world — every article title through the
// one-pass AddTitle, every alias through AddSurface — equals the one the
// same calls build with the two-pass AddTitle: the same surfaces with the
// same candidates in the same order, the same unigram index, the same
// longest span. Alias ambiguity is off so that the replay below is all
// BuildLinker calls.
func TestOnePassDictionaryMatchesTwoPass(t *testing.T) {
	w, err := wikigen.Generate(wikigen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := dataset.DefaultLinkerOptions()
	opts.AliasAmbiguity = 0
	got := entitylink.DictionaryOf(dataset.BuildLinker(w, opts))

	want := entitylink.NewDictionary(analysis.Standard())
	for ti := range w.Topics {
		topic := &w.Topics[ti]
		for i, a := range topic.Articles {
			want.AddTitleTwoPass(w.Graph.Title(a), a, 1/float64(i+1))
		}
		for _, alias := range topic.AliasTerms {
			want.AddSurface(alias, topic.Entity(), 0.6)
		}
	}
	if got.NumSurfaces() == 0 {
		t.Fatal("empty dictionary")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one-pass dictionary (%d surfaces) differs from the two-pass one (%d surfaces)", got.NumSurfaces(), want.NumSurfaces())
	}
}
