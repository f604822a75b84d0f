package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/motif"
)

var (
	suiteOnce sync.Once
	suite     *Suite
	suiteErr  error
)

func smallSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() { suite, suiteErr = NewSuite(dataset.ScaleSmall) })
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

func TestSuiteConstruction(t *testing.T) {
	s := smallSuite(t)
	if len(s.Instances()) != 3 {
		t.Fatal("want 3 instances")
	}
	for _, in := range s.Instances() {
		if in.Index == nil || len(in.Queries) == 0 {
			t.Fatalf("instance %s incomplete", in.Name)
		}
	}
	if s.Linker == nil {
		t.Fatal("no linker")
	}
}

func TestRunnerProducesFullRuns(t *testing.T) {
	s := smallSuite(t)
	r := s.NewRunner(s.ImageCLEF)
	run := r.QLQ()
	if len(run) != len(s.ImageCLEF.Queries) {
		t.Fatalf("run has %d entries, want %d", len(run), len(s.ImageCLEF.Queries))
	}
	for id, docs := range run {
		if len(docs) > RunDepth {
			t.Fatalf("%s: run deeper than %d", id, RunDepth)
		}
		seen := map[string]bool{}
		for _, d := range docs {
			if seen[d] {
				t.Fatalf("%s: duplicate doc %s in run", id, d)
			}
			seen[d] = true
		}
	}
}

func TestEntitiesManualVsAutomatic(t *testing.T) {
	s := smallSuite(t)
	r := s.NewRunner(s.ImageCLEF)
	q := &s.ImageCLEF.Queries[0]
	manual := r.Entities(q, true)
	if len(manual) == 0 {
		t.Fatal("no manual entities")
	}
	// Cached: same slice on second call.
	again := r.Entities(q, true)
	if &manual[0] != &again[0] {
		t.Error("entity cache not effective")
	}
	// The automatic leg may link nothing for a hard query, but it links
	// something for some query, caches it like the manual leg, and
	// links KB articles only.
	g := s.World.Graph
	linked := 0
	for qi := range s.ImageCLEF.Queries {
		q := &s.ImageCLEF.Queries[qi]
		auto := r.Entities(q, false)
		if len(auto) == 0 {
			continue
		}
		linked++
		if again := r.Entities(q, false); &auto[0] != &again[0] {
			t.Errorf("%s: automatic entity cache not effective", q.ID)
		}
		for _, id := range auto {
			if id < 0 || int(id) >= g.NumNodes() || g.Kind(id) != kb.KindArticle {
				t.Errorf("%s: automatic entity %d is not a KB article", q.ID, id)
			}
		}
	}
	if linked == 0 {
		t.Error("automatic linking found no entity for any query")
	}
}

// TestPaperShapeTable1 asserts the reproduction's core claims on the
// small environment: expansion beats all baselines, and the ground-truth
// upper bound beats or matches the blind motif expansion on shallow tops.
func TestPaperShapeTable1(t *testing.T) {
	s := smallSuite(t)
	t1 := Table1(s)
	meanOver := func(name string, tops ...int) float64 {
		var sum float64
		for _, k := range tops {
			sum += t1.Reports[name].Mean[k]
		}
		return sum / float64(len(tops))
	}
	shallow := []int{5, 10, 15, 20, 30}
	bestBaseline := 0.0
	for _, b := range []string{"QL_Q", "QL_E", "QL_Q&E"} {
		if v := meanOver(b, shallow...); v > bestBaseline {
			bestBaseline = v
		}
	}
	for _, sqe := range []string{"SQE_T", "SQE_T&S", "SQE_S"} {
		if got := meanOver(sqe, shallow...); got <= bestBaseline {
			t.Errorf("%s shallow precision %.3f not above best baseline %.3f", sqe, got, bestBaseline)
		}
	}
	if t1.UBRatioAvg <= 0.5 || t1.UBRatioAvg > 1.15 {
		t.Errorf("UB ratio average %.2f out of plausible band", t1.UBRatioAvg)
	}
	if t1.UBRatioWorst > t1.UBRatioAvg {
		t.Error("worst UB ratio above average")
	}
	if !strings.Contains(t1.Table.String(), "SQE_UB") {
		t.Error("table rendering incomplete")
	}
}

func TestPaperShapeTable2(t *testing.T) {
	s := smallSuite(t)
	for _, inst := range s.Instances() {
		t2 := Table2(s, inst)
		meanOver := func(name string, tops ...int) float64 {
			var sum float64
			for _, k := range tops {
				sum += t2.Reports[name].Mean[k]
			}
			return sum / float64(len(tops))
		}
		shallow := []int{5, 10, 15, 20, 30}
		best := 0.0
		for _, b := range []string{"QL_Q", "QL_E (M)", "QL_E (A)", "QL_Q&E (M)", "QL_Q&E (A)"} {
			if v := meanOver(b, shallow...); v > best {
				best = v
			}
		}
		sqeM := meanOver("SQE_C (M)", shallow...)
		sqeA := meanOver("SQE_C (A)", shallow...)
		if sqeM <= best {
			t.Errorf("%s: SQE_C (M) %.3f not above best baseline %.3f", inst.Name, sqeM, best)
		}
		if sqeA <= best*0.85 {
			t.Errorf("%s: SQE_C (A) %.3f collapsed vs baseline %.3f", inst.Name, sqeA, best)
		}
		// Manual entity selection is (approximately) an upper bound of
		// automatic selection.
		if sqeA > sqeM*1.15 {
			t.Errorf("%s: automatic (%.3f) should not beat manual (%.3f) by a wide margin", inst.Name, sqeA, sqeM)
		}
	}
}

// TestPaperShapeDatasetOrdering holds Table 2's dataset ordering where
// EXPERIMENTS.md reports it, at the benchmark scale: SQE_C's P@5 is
// highest on Image CLEF, then CHiC 2013, then CHiC 2012, with manual and
// with automatic entities (the paper: 0.380 / 0.304 / 0.232 for (A)).
func TestPaperShapeDatasetOrdering(t *testing.T) {
	s, err := NewSuite(dataset.ScaleDefault)
	if err != nil {
		t.Fatal(err)
	}
	order := []*dataset.Instance{s.ImageCLEF, s.CHiC2013, s.CHiC2012}
	for _, run := range []string{"SQE_C (M)", "SQE_C (A)"} {
		p5 := make([]float64, len(order))
		for i, inst := range order {
			p5[i] = Table2(s, inst).Reports[run].Mean[5]
		}
		if !(p5[0] > p5[1] && p5[1] > p5[2]) {
			t.Errorf("%s P@5: Image CLEF %.3f, CHiC 2013 %.3f, CHiC 2012 %.3f; want strictly descending", run, p5[0], p5[1], p5[2])
		}
	}
}

func TestPaperShapePRFCollapse(t *testing.T) {
	s := smallSuite(t)
	inst := s.ImageCLEF
	t2 := Table2(s, inst)
	t3 := Table3(s, inst, t2)
	// PRF on the raw query must be far below the raw query itself
	// (the paper's central PRF observation).
	prfQ := t3.Reports["PRF_Q"].Mean[10]
	qlQ := t2.Reports["QL_Q"].Mean[10]
	if prfQ > qlQ*0.8 {
		t.Errorf("PRF_Q (%.3f) should collapse well below QL_Q (%.3f)", prfQ, qlQ)
	}
	// SQE∘PRF must stay in the same league as SQE_C (orthogonality):
	// no collapse.
	sqePRF := t3.Reports["SQE_C/PRF"].Mean[10]
	sqeC := t2.Reports["SQE_C (A)"].Mean[10]
	if sqePRF < sqeC*0.5 {
		t.Errorf("SQE∘PRF (%.3f) collapsed relative to SQE_C (%.3f)", sqePRF, sqeC)
	}
	if !strings.Contains(t3.Table.String(), "%G") {
		t.Error("Table 3 should render gain columns")
	}
}

func TestFigure2Shape(t *testing.T) {
	s := smallSuite(t)
	f2 := Figure2(s)
	if len(f2.Lengths) != 3 {
		t.Fatal("want lengths 3,4,5")
	}
	total := 0
	for _, l := range f2.Lengths {
		total += f2.CycleCount[l]
		if cr := f2.CategoryRatio[l]; f2.CycleCount[l] > 0 && (cr <= 0 || cr >= 1) {
			t.Errorf("category ratio at length %d = %.3f out of (0,1)", l, cr)
		}
		if d := f2.ExtraEdgeDensity[l]; d < 0 {
			t.Errorf("negative extra-edge density at length %d", l)
		}
	}
	if total == 0 {
		t.Fatal("no cycles found in ground-truth query graphs")
	}
	// The paper's headline observation: roughly a third of cycle nodes
	// are categories. Allow a generous band.
	if cr := f2.CategoryRatio[3]; cr < 0.15 || cr > 0.6 {
		t.Errorf("length-3 category ratio %.3f outside [0.15,0.6]", cr)
	}
	// Ground-truth precision must decay with the top size.
	if f2.GroundTruthP[1] < f2.GroundTruthP[15] {
		t.Errorf("ground-truth precision should decay: P@1=%.3f P@15=%.3f", f2.GroundTruthP[1], f2.GroundTruthP[15])
	}
	if f2.String() == "" {
		t.Error("Figure2 rendering empty")
	}
}

func TestFigure5And6(t *testing.T) {
	s := smallSuite(t)
	t1 := Table1(s)
	f5 := Figure5(t1)
	if len(f5.Series) != 3 {
		t.Fatal("Figure 5 wants 3 series")
	}
	for _, series := range f5.Series {
		if len(series.Values) != len(eval.Tops) {
			t.Fatalf("series %s incomplete", series.Name)
		}
	}
	t2 := Table2(s, s.ImageCLEF)
	f6 := Figure6(t2)
	if len(f6.Series) != 3 {
		t.Fatal("Figure 6 wants 3 series")
	}
	// SQE_C (M) improvement at P@5 must be positive.
	for _, series := range f6.Series {
		if series.Name == "SQE_C (M)" && series.Values[5] <= 0 {
			t.Errorf("SQE_C (M) improvement at P@5 = %.2f, want positive", series.Values[5])
		}
	}
	if !strings.Contains(f5.String(), "SQE_T") || !strings.Contains(f6.String(), "Q_X") {
		t.Error("figure rendering incomplete")
	}
}

func TestTable4Timing(t *testing.T) {
	s := smallSuite(t)
	t4 := Table4(s)
	if len(t4.Datasets) != 3 {
		t.Fatal("want 3 datasets")
	}
	for _, set := range []motif.Set{motif.SetT, motif.SetTS, motif.SetS} {
		for _, d := range t4.Datasets {
			dur, ok := t4.Expansion[set][d]
			if !ok {
				t.Fatalf("missing timing for %v/%s", set, d)
			}
			if dur <= 0 {
				t.Fatalf("non-positive expansion time for %v/%s", set, d)
			}
			// The paper's claim: expansion is sub-second (in their case
			// sub-400ms for 50 queries); our graphs are smaller, so a
			// whole query set must expand well within a second.
			if dur.Seconds() > 1 {
				t.Errorf("expansion time %v too slow for %s", dur, d)
			}
		}
	}
	for _, d := range t4.Datasets {
		if t4.Total[d] < t4.Expansion[motif.SetTS][d] {
			t.Errorf("%s: total time below expansion time", d)
		}
	}
	if !strings.Contains(t4.String(), "Total Time") {
		t.Error("Table 4 rendering incomplete")
	}
}

func TestPrecisionTableRendering(t *testing.T) {
	tab := PrecisionTable{
		Title: "test",
		Tops:  []int{5, 10},
		Rows: []Row{{
			Name: "row",
			Mean: map[int]float64{5: 0.5, 10: 0.25},
			Sig:  map[int]bool{5: true},
			Gain: map[int]float64{5: 10, 10: -5},
		}},
		ShowGain: true,
	}
	out := tab.String()
	for _, want := range []string{"P@5", "P@10", "0.500†", "0.250", "+10.00", "-5.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering %q missing %q", out, want)
		}
	}
}
