package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPrecisionAt(t *testing.T) {
	rel := map[string]bool{"a": true, "b": true, "c": true}
	ranked := []string{"a", "x", "b", "y", "z"}
	tests := []struct {
		k    int
		want float64
	}{
		{1, 1},
		{2, 0.5},
		{3, 2.0 / 3},
		{5, 2.0 / 5},
		{10, 2.0 / 10}, // short list pads with non-relevant
		{0, 0},
	}
	for _, tc := range tests {
		if got := PrecisionAt(rel, ranked, tc.k); math.Abs(got-tc.want) > 1e-15 {
			t.Errorf("P@%d = %f, want %f", tc.k, got, tc.want)
		}
	}
	if got := PrecisionAt(rel, nil, 5); got != 0 {
		t.Errorf("empty run P@5 = %f", got)
	}
}

func TestQrels(t *testing.T) {
	q := make(Qrels)
	q.AddJudgment("q1", "d1")
	q.AddJudgment("q1", "d2")
	q.AddJudgment("q2", "d3")
	q["q3"] = map[string]bool{}
	if len(q["q1"]) != 2 || len(q["q3"]) != 0 {
		t.Error("relevant counts wrong")
	}
	ids := q.Queries()
	if len(ids) != 3 || ids[0] != "q1" || ids[2] != "q3" {
		t.Errorf("Queries = %v", ids)
	}
	if got := q.AvgRelevant(); got != 1.0 {
		t.Errorf("AvgRelevant = %f", got)
	}
}

func TestPerQueryAndEvaluate(t *testing.T) {
	q := make(Qrels)
	q.AddJudgment("q1", "d1")
	q["q2"] = map[string]bool{} // zero-relevant query stays in the average
	run := Run{"q1": {"d1", "x", "y", "z", "w"}, "q2": {"a", "b", "c", "d", "e"}}
	pq := PerQuery(q, run, 5)
	if len(pq) != 2 || pq[0] != 0.2 || pq[1] != 0 {
		t.Errorf("PerQuery = %v", pq)
	}
	if got := MeanPrecisionAt(q, run, 5); got != 0.1 {
		t.Errorf("mean P@5 = %f", got)
	}
	rep := Evaluate("test", q, run)
	if rep.Mean[5] != 0.1 {
		t.Errorf("report mean = %f", rep.Mean[5])
	}
	if len(rep.PerQuery[5]) != 2 {
		t.Error("report per-query missing")
	}
}

func TestPercentGain(t *testing.T) {
	tests := []struct {
		x, base, want float64
	}{
		{0.2, 0.1, 100},
		{0.1, 0.2, -50},
		{0.1, 0.1, 0},
		{0, 0, 0},
		{0.1, 0, 100},
		{0, 0.1, -100},
	}
	for _, tc := range tests {
		if got := PercentGain(tc.x, tc.base); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("PercentGain(%f, %f) = %f, want %f", tc.x, tc.base, got, tc.want)
		}
	}
}

func TestBestOfAndBestPerQuery(t *testing.T) {
	q := make(Qrels)
	q.AddJudgment("q1", "d1")
	q.AddJudgment("q2", "d2")
	r1 := Evaluate("r1", q, Run{"q1": {"d1"}, "q2": {"x"}})
	r2 := Evaluate("r2", q, Run{"q1": {"x"}, "q2": {"d2"}})
	best := BestOf(r1, r2)
	if best[5] != 0.1 { // each run gets one query right: mean 0.1 each
		t.Errorf("BestOf[5] = %f", best[5])
	}
	bpq := BestPerQuery(r1, r2)
	// element-wise max: both queries solved → 0.2 each at P@5
	if bpq[5][0] != 0.2 || bpq[5][1] != 0.2 {
		t.Errorf("BestPerQuery = %v", bpq[5])
	}
}

func TestPairedTTestKnownValue(t *testing.T) {
	// Classic example: paired differences with known t.
	a := []float64{30, 31, 34, 40, 36, 35, 34, 30, 28, 29}
	b := []float64{29, 30, 31, 32, 30, 28, 30, 27, 26, 26}
	tstat, p := PairedTTest(a, b)
	// Differences: 1,1,3,8,6,7,4,3,2,3 → mean 3.8, sd 2.4404…,
	// t = 3.8 / (2.4404/√10) = 4.9237…
	if math.Abs(tstat-4.9237) > 0.001 {
		t.Errorf("t = %f, want ≈4.9237", tstat)
	}
	// Two-tailed p with df=9 for t≈4.92 sits just under 0.001.
	if p < 0.0003 || p > 0.0012 {
		t.Errorf("p = %f, want ≈0.0008", p)
	}
}

func TestPairedTTestNoDifference(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	tstat, p := PairedTTest(a, a)
	if tstat != 0 || p != 1 {
		t.Errorf("identical samples: t=%f p=%f", tstat, p)
	}
}

func TestPairedTTestConstantShift(t *testing.T) {
	a := []float64{2, 3, 4, 5}
	b := []float64{1, 2, 3, 4}
	tstat, p := PairedTTest(a, b)
	if !math.IsInf(tstat, 1) || p != 0 {
		t.Errorf("deterministic improvement: t=%v p=%v", tstat, p)
	}
}

func TestPairedTTestDegenerate(t *testing.T) {
	if tstat, p := PairedTTest([]float64{1}, []float64{2}); tstat != 0 || p != 1 {
		t.Error("n=1 should be inconclusive")
	}
	if tstat, p := PairedTTest([]float64{1, 2}, []float64{1}); tstat != 0 || p != 1 {
		t.Error("mismatched lengths should be inconclusive")
	}
}

func TestRegIncBetaAgainstStudentCDF(t *testing.T) {
	// Spot-check the two-tailed p-values against standard t tables:
	// df=10, t=2.228 → p≈0.05; df=30, t=2.042 → p≈0.05; df=5, t=4.032 → p≈0.01.
	cases := []struct {
		df, tval, want float64
	}{
		{10, 2.228, 0.05},
		{30, 2.042, 0.05},
		{5, 4.032, 0.01},
		{20, 2.845, 0.01},
	}
	for _, c := range cases {
		x := c.df / (c.df + c.tval*c.tval)
		p := regIncBeta(c.df/2, 0.5, x)
		if math.Abs(p-c.want) > 0.0015 {
			t.Errorf("df=%v t=%v: p=%f, want ≈%f", c.df, c.tval, p, c.want)
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if regIncBeta(2, 3, 0) != 0 || regIncBeta(2, 3, 1) != 1 {
		t.Error("bounds wrong")
	}
	if regIncBeta(2, 3, -0.5) != 0 || regIncBeta(2, 3, 1.5) != 1 {
		t.Error("out-of-range clamping wrong")
	}
}

// Property: the t-test is antisymmetric in its arguments and p is always
// in [0,1].
func TestTTestProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64()
			b[i] = rng.Float64()
		}
		t1, p1 := PairedTTest(a, b)
		t2, p2 := PairedTTest(b, a)
		if p1 < 0 || p1 > 1 {
			return false
		}
		if math.Abs(t1+t2) > 1e-9 {
			return false
		}
		return math.Abs(p1-p2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: P@k is monotone in the set of relevant docs — adding a
// judgment never lowers precision.
func TestPrecisionMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ranked []string
		for i := 0; i < 20; i++ {
			ranked = append(ranked, string(rune('a'+rng.Intn(26))))
		}
		rel := map[string]bool{}
		for i := 0; i < 5; i++ {
			rel[string(rune('a'+rng.Intn(26)))] = true
		}
		before := PrecisionAt(rel, ranked, 10)
		rel[ranked[rng.Intn(len(ranked))]] = true
		after := PrecisionAt(rel, ranked, 10)
		return after >= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
