package search_test

import (
	"repro/internal/search"
	"repro/internal/search/searchtest"
)

func init() { search.OracleRank = searchtest.Rank }
