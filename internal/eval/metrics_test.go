package eval

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func relSet(docs ...string) map[string]bool {
	m := map[string]bool{}
	for _, d := range docs {
		m[d] = true
	}
	return m
}

func TestAveragePrecision(t *testing.T) {
	rel := relSet("a", "b", "c")
	// ranks of relevant: 1, 3 → AP = (1/1 + 2/3)/3
	ranked := []string{"a", "x", "b", "y"}
	want := (1.0 + 2.0/3) / 3
	if got := AveragePrecision(rel, ranked); math.Abs(got-want) > 1e-12 {
		t.Errorf("AP = %f, want %f", got, want)
	}
	if AveragePrecision(map[string]bool{}, ranked) != 0 {
		t.Error("AP with no relevant should be 0")
	}
	if AveragePrecision(rel, nil) != 0 {
		t.Error("AP of empty run should be 0")
	}
	// Perfect run.
	if got := AveragePrecision(rel, []string{"a", "b", "c"}); got != 1 {
		t.Errorf("perfect AP = %f", got)
	}
}

func TestReciprocalRank(t *testing.T) {
	rel := relSet("b")
	if got := ReciprocalRank(rel, []string{"a", "b"}); got != 0.5 {
		t.Errorf("RR = %f", got)
	}
	if got := ReciprocalRank(rel, []string{"x", "y"}); got != 0 {
		t.Errorf("RR miss = %f", got)
	}
}

func TestRecallAt(t *testing.T) {
	rel := relSet("a", "b", "c", "d")
	ranked := []string{"a", "x", "b"}
	if got := RecallAt(rel, ranked, 3); got != 0.5 {
		t.Errorf("recall@3 = %f", got)
	}
	if got := RecallAt(rel, ranked, 100); got != 0.5 {
		t.Errorf("recall@100 = %f", got)
	}
	if RecallAt(map[string]bool{}, ranked, 3) != 0 {
		t.Error("recall with no relevant should be 0")
	}
}

func TestRPrecision(t *testing.T) {
	rel := relSet("a", "b")
	if got := RPrecision(rel, []string{"a", "x", "b"}); got != 0.5 {
		t.Errorf("Rprec = %f", got)
	}
}

func TestNDCG(t *testing.T) {
	rel := relSet("a", "b")
	// Perfect ranking of 2 relevant in top 2: nDCG@10 = 1.
	if got := NDCGAt(rel, []string{"a", "b", "x"}, 10); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect nDCG = %f", got)
	}
	// One relevant at rank 2 of an ideal 1: dcg = 1/log2(3), idcg = 1.
	one := relSet("a")
	want := 1 / math.Log2(3)
	if got := NDCGAt(one, []string{"x", "a"}, 10); math.Abs(got-want) > 1e-12 {
		t.Errorf("nDCG = %f, want %f", got, want)
	}
	if NDCGAt(rel, nil, 0) != 0 {
		t.Error("nDCG k=0 should be 0")
	}
}

func TestSummarize(t *testing.T) {
	q := make(Qrels)
	q.AddJudgment("q1", "d1")
	q.AddJudgment("q2", "d2")
	run := Run{"q1": {"d1"}, "q2": {"x", "d2"}}
	s := Summarize("test", q, run)
	if s.NumQueries != 2 {
		t.Errorf("NumQueries = %d", s.NumQueries)
	}
	if math.Abs(s.MAP-0.75) > 1e-12 { // (1 + 0.5)/2
		t.Errorf("MAP = %f", s.MAP)
	}
	if math.Abs(s.MRR-0.75) > 1e-12 {
		t.Errorf("MRR = %f", s.MRR)
	}
	if s.P[5] != (0.2+0.2)/2 {
		t.Errorf("P@5 = %f", s.P[5])
	}
	if s.Recall[5] != 1 {
		t.Errorf("recall@5 = %f", s.Recall[5])
	}
	empty := Summarize("none", Qrels{}, Run{})
	if empty.MAP != 0 || empty.NumQueries != 0 {
		t.Error("empty summary wrong")
	}
}

func TestRobustnessIndex(t *testing.T) {
	q := make(Qrels)
	q.AddJudgment("q1", "d1")
	q.AddJudgment("q2", "d2")
	q.AddJudgment("q3", "d3")
	run := Run{"q1": {"d1"}, "q2": {"x"}, "q3": {"d3"}}
	base := Run{"q1": {"x"}, "q2": {"d2"}, "q3": {"d3"}}
	// q1 improved, q2 hurt, q3 tied → RI = 0
	if got := RobustnessIndex(q, run, base, 1); got != 0 {
		t.Errorf("RI = %f", got)
	}
	if got := RobustnessIndex(q, run, Run{}, 1); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("RI vs empty base = %f", got)
	}
}

// Property: AP, RR, recall, nDCG all live in [0,1].
func TestMetricRangesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := map[string]bool{}
		for i := 0; i < 1+rng.Intn(5); i++ {
			rel[string(rune('a'+rng.Intn(10)))] = true
		}
		var ranked []string
		for i := 0; i < rng.Intn(15); i++ {
			ranked = append(ranked, string(rune('a'+rng.Intn(10))))
		}
		for _, v := range []float64{
			AveragePrecision(rel, ranked),
			ReciprocalRank(rel, ranked),
			RecallAt(rel, ranked, 5),
			NDCGAt(rel, ranked, 5),
			RPrecision(rel, ranked),
		} {
			if v < 0 || v > 1.0000001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRunTRECRoundTrip(t *testing.T) {
	run := Run{
		"q1": {"d3", "d1", "d2"},
		"q2": {"d9"},
	}
	var buf bytes.Buffer
	if err := WriteRunTREC(&buf, run, "sqe"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRunTREC(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, run) {
		t.Errorf("round trip: %v vs %v", got, run)
	}
}

func TestRunTRECFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRunTREC(&buf, Run{"q1": {"dA"}}, "tag"); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	fields := strings.Fields(line)
	if len(fields) != 6 || fields[0] != "q1" || fields[1] != "Q0" || fields[2] != "dA" || fields[3] != "1" || fields[5] != "tag" {
		t.Errorf("TREC line = %q", line)
	}
}

func TestReadRunTRECOrdersByScore(t *testing.T) {
	in := "q1 Q0 low 2 0.1 t\nq1 Q0 high 1 0.9 t\n"
	run, err := ReadRunTREC(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run["q1"], []string{"high", "low"}) {
		t.Errorf("order = %v", run["q1"])
	}
}

func TestReadRunTRECErrors(t *testing.T) {
	if _, err := ReadRunTREC(strings.NewReader("q1 Q0 doc\n")); err == nil {
		t.Error("short line should error")
	}
	if _, err := ReadRunTREC(strings.NewReader("q1 Q0 doc x 0.5 t\n")); err == nil {
		t.Error("bad rank should error")
	}
	if _, err := ReadRunTREC(strings.NewReader("q1 Q0 doc 1 zz t\n")); err == nil {
		t.Error("bad score should error")
	}
	// Comments and blanks are fine.
	run, err := ReadRunTREC(strings.NewReader("# comment\n\nq1 Q0 d 1 1.0 t\n"))
	if err != nil || len(run["q1"]) != 1 {
		t.Errorf("comment handling: %v %v", run, err)
	}
}

func TestQrelsTRECRoundTrip(t *testing.T) {
	q := make(Qrels)
	q.AddJudgment("q1", "d1")
	q.AddJudgment("q1", "d2")
	q.AddJudgment("q2", "d3")
	var buf bytes.Buffer
	if err := WriteQrelsTREC(&buf, q); err != nil {
		t.Fatal(err)
	}
	got, err := ReadQrelsTREC(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, q) {
		t.Errorf("round trip: %v vs %v", got, q)
	}
}

func TestReadQrelsZeroRelevance(t *testing.T) {
	in := "q1 0 d1 1\nq2 0 dx 0\n"
	q, err := ReadQrelsTREC(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(q["q1"]) != 1 {
		t.Error("q1 judgment lost")
	}
	// q2 exists with zero relevant docs.
	if _, ok := q["q2"]; !ok || len(q["q2"]) != 0 {
		t.Error("zero-relevant query should survive")
	}
	if _, err := ReadQrelsTREC(strings.NewReader("q1 0 d\n")); err == nil {
		t.Error("short qrels line should error")
	}
	if _, err := ReadQrelsTREC(strings.NewReader("q1 0 d xx\n")); err == nil {
		t.Error("bad relevance should error")
	}
}
