// Package searchtest holds the one reference every retrieval
// configuration is diffed against (differential_test.go at the module
// root, oracle_test.go in package search). It is test support: only
// _test.go files import it.
//
// The oracle ranks a monolithic in-memory index by scoring every
// document through Searcher.Explain, the one-document path behind
// cmd/sqe-inspect. It therefore shares the product's query flattening
// and Dirichlet scoring function — the float arithmetic a ranking is
// made of — and none of what an evaluator adds on top: no cursor, merge,
// heap, bound, cost model, partition, statistics override or tombstone
// code runs here.
package searchtest

import (
	"context"
	"sort"

	"repro/internal/index"
	"repro/internal/search"
)

// Rank returns the top k documents of s's index for q under s's μ:
// every document with a matching leaf, by descending
// score, ties by ascending DocID. A query matching nothing, and k <= 0,
// rank nil.
func Rank(s *search.Searcher, q search.Node, k int) []search.Result {
	var res []search.Result
	for d := 0; d < s.Index().NumDocs() && k > 0; d++ {
		ex := s.Explain(q, index.DocID(d))
		for _, l := range ex.Leaves {
			if l.TF > 0 {
				res = append(res, search.Result{Doc: ex.Doc, Name: ex.Name, Score: ex.Score})
				break
			}
		}
	}
	sort.SliceStable(res, func(i, j int) bool { return res[i].Score > res[j].Score })
	if len(res) > k {
		res = res[:k]
	}
	return res
}

// Oracle is Rank as a search.Distributed, so that
// sqe.NewEngine(g, ix, sqe.WithDistributedSearcher(searchtest.New(ix)))
// is the whole pipeline with the oracle for its retrieval stage.
type Oracle struct{ s *search.Searcher }

// New returns an oracle over ix, which must be a monolithic in-memory
// index of exactly the documents the configuration under test holds, in
// the same order.
func New(ix *index.Index) *Oracle { return &Oracle{s: search.NewSearcher(ix)} }

// Configure implements search.Distributed: μ applies; pruning and the
// worker pool have nothing here to act on.
func (o *Oracle) Configure(cfg search.ShardConfig) { o.s.Mu = cfg.Mu }

// Evaluate implements search.Distributed by ranking each tree on its
// own. It reports no statistics and never degrades.
func (o *Oracle) Evaluate(ctx context.Context, qs []search.Node, k int, _ search.EvalOptions) (search.Evaluation, error) {
	if err := ctx.Err(); err != nil {
		return search.Evaluation{}, err
	}
	ev := search.Evaluation{Results: make([][]search.Result, len(qs))}
	for i, q := range qs {
		ev.Results[i] = Rank(o.s, q, k)
	}
	return ev, nil
}
