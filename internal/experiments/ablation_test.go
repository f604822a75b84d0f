package experiments

import (
	"strings"
	"testing"

	"repro/internal/motif"
)

func TestAblations(t *testing.T) {
	s := smallSuite(t)
	res := Ablations(s, s.ImageCLEF)
	names := []string{"full", "uniform-weights", "single-link", "no-categories", "splice-2/50", "mu-250", "uw-titles"}
	if len(res.Table.Rows) != len(names) {
		t.Fatalf("rows = %d", len(res.Table.Rows))
	}
	for _, n := range names {
		if res.Reports[n] == nil {
			t.Fatalf("missing report %s", n)
		}
	}
	// The central structural claims: relaxing the double-link condition
	// or dropping categories must not beat the full configuration at
	// shallow tops (they add noisy expansion features).
	meanShallow := func(name string) float64 {
		rep := res.Reports[name]
		return (rep.Mean[5] + rep.Mean[10] + rep.Mean[20]) / 3
	}
	full := meanShallow("full")
	for _, weakened := range []string{"single-link", "no-categories"} {
		if got := meanShallow(weakened); got > full*1.1 {
			t.Errorf("%s (%.3f) should not beat full (%.3f)", weakened, got, full)
		}
	}
	if !strings.Contains(res.Table.String(), "uniform-weights") {
		t.Error("rendering incomplete")
	}
}

func TestMuSweep(t *testing.T) {
	s := smallSuite(t)
	res := MuSweep(s, s.ImageCLEF, []float64{100, 2500})
	if len(res.P10) != 2 {
		t.Fatal("sweep incomplete")
	}
	for _, p := range res.P10 {
		if p < 0 || p > 1 {
			t.Fatalf("precision out of range: %v", res.P10)
		}
	}
	if res.String() == "" {
		t.Error("rendering empty")
	}
}

func TestMineMotifsRecoversPaperMotifs(t *testing.T) {
	s := smallSuite(t)
	res := MineMotifs(s, s.ImageCLEF)
	if len(res.Scores) == 0 {
		t.Fatal("no template scores")
	}
	// Among the top half of templates there must be at least one with
	// reciprocal links and a category condition — i.e. the miner finds
	// the paper's motif family in the synthetic world.
	top := res.Scores[:len(res.Scores)/2]
	found := false
	for _, sc := range top {
		if sc.Template.Link == motif.LinkReciprocal && sc.Template.Cat != motif.CatNone {
			found = true
		}
	}
	if !found {
		t.Errorf("no reciprocal+category template in the top half: %+v", top)
	}
	if !strings.Contains(res.String(), "reciprocal") {
		t.Error("rendering incomplete")
	}
}
