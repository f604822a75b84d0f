package search

// OracleRank is searchtest.Rank, the reference the differential tests
// of this package compare against. searchtest imports this package, so
// the in-package tests cannot import it; oracle_test.go (package
// search_test, linked into the same test binary) installs it before any
// test runs.
var OracleRank func(s *Searcher, q Node, k int) []Result
