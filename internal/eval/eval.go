// Package eval implements the evaluation methodology of the paper's
// Section 3: precision at the default TrecEval tops and paired two-tailed
// t-tests at p < 0.05 for significance daggers.
package eval

import (
	"fmt"
	"sort"
)

// Tops are the default TrecEval precision cutoffs the paper reports.
var Tops = []int{5, 10, 15, 20, 30, 100, 200, 500, 1000}

// Qrels holds relevance judgments: query ID → set of relevant document
// names.
type Qrels map[string]map[string]bool

// AddJudgment marks doc relevant for query.
func (q Qrels) AddJudgment(query, doc string) {
	m, ok := q[query]
	if !ok {
		m = make(map[string]bool)
		q[query] = m
	}
	m[doc] = true
}

// Queries returns the judged query IDs, sorted.
func (q Qrels) Queries() []string {
	out := make([]string, 0, len(q))
	for id := range q {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// AvgRelevant returns the mean number of relevant documents per judged
// query (the paper quotes 68.8 for Image CLEF, 31.32 and 50.6 for CHiC).
func (q Qrels) AvgRelevant() float64 {
	if len(q) == 0 {
		return 0
	}
	total := 0
	for _, m := range q {
		total += len(m)
	}
	return float64(total) / float64(len(q))
}

// Run is a retrieval run: query ID → ranked document names (best first).
type Run map[string][]string

// PrecisionAt computes P@k for one ranked list: relevant-in-top-k / k.
// Lists shorter than k are padded with non-relevant (TrecEval semantics).
func PrecisionAt(rel map[string]bool, ranked []string, k int) float64 {
	if k <= 0 {
		return 0
	}
	n := k
	if len(ranked) < n {
		n = len(ranked)
	}
	hits := 0
	for i := 0; i < n; i++ {
		if rel[ranked[i]] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// PerQuery returns P@k per query in the order of qrels.Queries(). Queries
// missing from the run contribute 0, queries with zero relevant documents
// contribute 0 (they cannot be satisfied — the paper keeps them in the
// average, which is why CHiC 2012 scores are depressed).
func PerQuery(qrels Qrels, run Run, k int) []float64 {
	ids := qrels.Queries()
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = PrecisionAt(qrels[id], run[id], k)
	}
	return out
}

// Mean returns the arithmetic mean of xs (0 for empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanPrecisionAt returns mean P@k over all judged queries.
func MeanPrecisionAt(qrels Qrels, run Run, k int) float64 {
	return Mean(PerQuery(qrels, run, k))
}

// Report holds mean precision at every top for one run, plus the
// per-query values needed for significance testing.
type Report struct {
	Name string
	// Mean[k] is mean P@k.
	Mean map[int]float64
	// PerQuery[k] is P@k per query, ordered by qrels.Queries().
	PerQuery map[int][]float64
}

// Evaluate computes a Report for run over the standard Tops.
func Evaluate(name string, qrels Qrels, run Run) *Report {
	r := &Report{
		Name:     name,
		Mean:     make(map[int]float64, len(Tops)),
		PerQuery: make(map[int][]float64, len(Tops)),
	}
	for _, k := range Tops {
		pq := PerQuery(qrels, run, k)
		r.PerQuery[k] = pq
		r.Mean[k] = Mean(pq)
	}
	return r
}

// PercentGain returns the percentage improvement of x over base, the
// quantity plotted in the paper's Figures 5 and 6 and the %G columns of
// Table 3. A zero base with positive x reports +100%.
func PercentGain(x, base float64) float64 {
	if base == 0 {
		if x == 0 {
			return 0
		}
		return 100
	}
	return (x - base) / base * 100
}

// BestOf returns, per top, the maximum mean precision across reports —
// the "best of QL_Q, QL_E and QL_Q&E" denominator of Figures 5 and 6.
func BestOf(reports ...*Report) map[int]float64 {
	best := make(map[int]float64, len(Tops))
	for _, k := range Tops {
		for _, r := range reports {
			if v := r.Mean[k]; v > best[k] {
				best[k] = v
			}
		}
	}
	return best
}

// BestPerQuery returns, per top, the element-wise maximum per-query
// precision across reports, used as the paired baseline for significance
// against "the best execution" (paper Figure 6 / Table 2 daggers).
func BestPerQuery(reports ...*Report) map[int][]float64 {
	out := make(map[int][]float64, len(Tops))
	if len(reports) == 0 {
		return out
	}
	for _, k := range Tops {
		n := len(reports[0].PerQuery[k])
		best := make([]float64, n)
		for _, r := range reports {
			pq := r.PerQuery[k]
			if len(pq) != n {
				panic(fmt.Sprintf("eval: mismatched per-query lengths at top %d: %d vs %d", k, len(pq), n))
			}
			for i, v := range pq {
				if v > best[i] {
					best[i] = v
				}
			}
		}
		out[k] = best
	}
	return out
}
