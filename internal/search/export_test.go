package search

import "context"

// OracleRank is searchtest.Rank, the reference the differential tests
// of this package compare against. searchtest imports this package, so
// the in-package tests cannot import it; oracle_test.go (package
// search_test, linked into the same test binary) installs it before any
// test runs.
var OracleRank func(s *Searcher, q Node, k int) []Result

// monoScoring is the scoring configuration a one-partition evaluation
// of s resolves, for tests that drive searchRuns directly.
func monoScoring(s *Searcher) scoring {
	return scoring{
		mu:             resolveMu(s.Mu),
		disablePruning: s.DisablePruning,
		forcePrune:     s.forcePrune,
	}
}

// evalOne is a one-tree Evaluate: the tree's ranking (nil on error) and
// the evaluation's stats and partial report.
func evalOne(ctx context.Context, d Distributed, q Node, k int, opts EvalOptions) ([]Result, Evaluation, error) {
	ev, err := d.Evaluate(ctx, []Node{q}, k, opts)
	if err != nil {
		return nil, ev, err
	}
	return ev.Results[0], ev, nil
}
