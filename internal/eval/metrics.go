package eval

import (
	"math"
)

// This file extends the evaluation substrate beyond the paper's P@k with
// the rest of the standard TrecEval measures, so runs produced by this
// library can be analysed the way any IR system's would be.

// AveragePrecision computes AP for one ranked list: the mean of the
// precision values at each relevant document's rank, normalised by the
// number of relevant documents (uninterpolated AP, trec_eval "map").
func AveragePrecision(rel map[string]bool, ranked []string) float64 {
	if len(rel) == 0 {
		return 0
	}
	hits := 0
	var sum float64
	seen := make(map[string]bool, len(ranked))
	for i, doc := range ranked {
		if seen[doc] {
			continue // duplicate docids never earn credit twice
		}
		seen[doc] = true
		if rel[doc] {
			hits++
			sum += float64(hits) / float64(i+1)
		}
	}
	return sum / float64(len(rel))
}

// ReciprocalRank returns 1/rank of the first relevant document, or 0
// when none is retrieved.
func ReciprocalRank(rel map[string]bool, ranked []string) float64 {
	for i, doc := range ranked {
		if rel[doc] {
			return 1 / float64(i+1)
		}
	}
	return 0
}

// RecallAt computes recall at cutoff k: relevant-retrieved-in-top-k /
// total-relevant (0 for queries without relevant documents).
func RecallAt(rel map[string]bool, ranked []string, k int) float64 {
	if len(rel) == 0 {
		return 0
	}
	if k > len(ranked) {
		k = len(ranked)
	}
	hits := 0
	seen := make(map[string]bool, k)
	for i := 0; i < k; i++ {
		if seen[ranked[i]] {
			continue
		}
		seen[ranked[i]] = true
		if rel[ranked[i]] {
			hits++
		}
	}
	return float64(hits) / float64(len(rel))
}

// RPrecision computes precision at rank R where R is the number of
// relevant documents for the query (trec_eval "Rprec").
func RPrecision(rel map[string]bool, ranked []string) float64 {
	if len(rel) == 0 {
		return 0
	}
	return PrecisionAt(rel, ranked, len(rel))
}

// NDCGAt computes normalised discounted cumulative gain at cutoff k with
// binary gains: DCG = Σ 1/log2(i+1) over relevant ranks i (1-based),
// normalised by the ideal DCG of min(k, |rel|) relevant documents at the
// top.
func NDCGAt(rel map[string]bool, ranked []string, k int) float64 {
	if len(rel) == 0 || k <= 0 {
		return 0
	}
	var dcg float64
	n := k
	if len(ranked) < n {
		n = len(ranked)
	}
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		if seen[ranked[i]] {
			continue
		}
		seen[ranked[i]] = true
		if rel[ranked[i]] {
			dcg += 1 / math.Log2(float64(i)+2)
		}
	}
	ideal := len(rel)
	if ideal > k {
		ideal = k
	}
	var idcg float64
	for i := 0; i < ideal; i++ {
		idcg += 1 / math.Log2(float64(i)+2)
	}
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

// Summary aggregates all supported measures for a run.
type Summary struct {
	Name string
	MAP  float64
	MRR  float64
	// P is mean precision at the standard Tops.
	P map[int]float64
	// Recall is mean recall at the standard Tops.
	Recall map[int]float64
	// NDCG10 is mean nDCG@10.
	NDCG10 float64
	// RPrec is mean R-precision.
	RPrec float64
	// NumQueries counts the judged queries.
	NumQueries int
}

// Summarize computes a full metric summary of run against qrels.
func Summarize(name string, qrels Qrels, run Run) *Summary {
	ids := qrels.Queries()
	s := &Summary{
		Name:       name,
		P:          make(map[int]float64, len(Tops)),
		Recall:     make(map[int]float64, len(Tops)),
		NumQueries: len(ids),
	}
	if len(ids) == 0 {
		return s
	}
	for _, id := range ids {
		rel, ranked := qrels[id], run[id]
		s.MAP += AveragePrecision(rel, ranked)
		s.MRR += ReciprocalRank(rel, ranked)
		s.NDCG10 += NDCGAt(rel, ranked, 10)
		s.RPrec += RPrecision(rel, ranked)
		for _, k := range Tops {
			s.P[k] += PrecisionAt(rel, ranked, k)
			s.Recall[k] += RecallAt(rel, ranked, k)
		}
	}
	n := float64(len(ids))
	s.MAP /= n
	s.MRR /= n
	s.NDCG10 /= n
	s.RPrec /= n
	for _, k := range Tops {
		s.P[k] /= n
		s.Recall[k] /= n
	}
	return s
}

// RobustnessIndex computes Sakai's robustness index of run vs base at
// P@k: (improved − hurt) / queries, in [−1, 1]. A positive value means
// the treatment helps more queries than it hurts — the per-query view
// behind the paper's significance daggers.
func RobustnessIndex(qrels Qrels, run, base Run, k int) float64 {
	ids := qrels.Queries()
	if len(ids) == 0 {
		return 0
	}
	improved, hurt := 0, 0
	for _, id := range ids {
		a := PrecisionAt(qrels[id], run[id], k)
		b := PrecisionAt(qrels[id], base[id], k)
		switch {
		case a > b:
			improved++
		case a < b:
			hurt++
		}
	}
	return float64(improved-hurt) / float64(len(ids))
}
