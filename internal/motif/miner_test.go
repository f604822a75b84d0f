package motif

import (
	"testing"

	"repro/internal/kb"
)

func TestMinerPrefersStructuredTemplates(t *testing.T) {
	// World where the "good" expansions are exactly the reciprocal
	// same-category neighbours: the miner must rank templates with both
	// conditions above the unconditioned ones.
	f := build(t)
	truth := []GroundTruth{{
		QueryNode: f.ids["Q"],
		Good:      []kb.NodeID{f.ids["TRI"], f.ids["TRI2"]},
	}}
	m := NewMiner(f.g)
	scores := m.Score(truth)
	if len(scores) != len(AllTemplates()) {
		t.Fatalf("scores = %d, want %d", len(scores), len(AllTemplates()))
	}
	best := scores[0].Template
	if best.Link != LinkReciprocal || best.Cat != CatSuperset {
		t.Errorf("best template = %v, want reciprocal+category-superset", best)
	}
	// The unconstrained template must have perfect recall but the lowest
	// precision of the templates that select anything.
	var loose TemplateScore
	for _, s := range scores {
		if s.Template == (Template{Link: LinkAny, Cat: CatNone}) {
			loose = s
		}
	}
	if loose.Recall != 1 {
		t.Errorf("any-link/no-category recall = %f, want 1", loose.Recall)
	}
	if loose.Precision >= scores[0].Precision {
		t.Errorf("loose precision %f should be below best %f", loose.Precision, scores[0].Precision)
	}
}

func TestMinerMetricsConsistent(t *testing.T) {
	f := build(t)
	truth := []GroundTruth{{QueryNode: f.ids["Q"], Good: []kb.NodeID{f.ids["SQ"]}}}
	for _, s := range NewMiner(f.g).Score(truth) {
		if s.Precision < 0 || s.Precision > 1 || s.Recall < 0 || s.Recall > 1 {
			t.Fatalf("metrics out of range: %+v", s)
		}
		if s.F1 > s.Precision+1e-12 && s.F1 > s.Recall+1e-12 {
			t.Fatalf("F1 above both components: %+v", s)
		}
		if s.Precision > 0 && s.Recall > 0 && s.F1 == 0 {
			t.Fatalf("F1 zero with positive components: %+v", s)
		}
	}
}

func TestMinerEmptyTruth(t *testing.T) {
	f := build(t)
	for _, s := range NewMiner(f.g).Score(nil) {
		if s.Precision != 0 || s.Recall != 0 || s.F1 != 0 || s.AvgSelected != 0 {
			t.Fatalf("empty truth should zero all metrics: %+v", s)
		}
	}
}

func TestTemplateStrings(t *testing.T) {
	tpl := Template{Link: LinkReciprocal, Cat: CatParent}
	if tpl.String() != "reciprocal+category-parent" {
		t.Errorf("String = %q", tpl.String())
	}
	if LinkAny.String() != "any-link" || CatNone.String() != "no-category" ||
		CatShared.String() != "shared-category" || CatSuperset.String() != "category-superset" {
		t.Error("condition strings wrong")
	}
}
