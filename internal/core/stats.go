package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/search"
)

// StageTimings breaks one query's (or one run's) pipeline wall-clock
// into the paper's cost stages (Section 4.4 flags expansion/retrieval
// cost as the engineering target): entity resolution, motif search,
// expanded-query construction, and retrieval.
type StageTimings struct {
	EntityLink  time.Duration
	MotifSearch time.Duration
	QueryBuild  time.Duration
	Retrieval   time.Duration
}

// Total sums the stages.
func (t StageTimings) Total() time.Duration {
	return t.EntityLink + t.MotifSearch + t.QueryBuild + t.Retrieval
}

// Add accumulates o into t.
func (t *StageTimings) Add(o StageTimings) {
	t.EntityLink += o.EntityLink
	t.MotifSearch += o.MotifSearch
	t.QueryBuild += o.QueryBuild
	t.Retrieval += o.Retrieval
}

// PipelineStats aggregates stage timings and retrieval counters over one
// or more queries. It is the unit the Engine threads through the SQE
// pipeline and that cmd/sqe-bench and cmd/sqe-search surface, so wins on
// the BENCH trajectory can be attributed to a stage instead of guessed.
type PipelineStats struct {
	Stages StageTimings
	// Search accumulates the retrieval evaluator's counters (candidates
	// examined, postings advanced, heap traffic) over every retrieval.
	Search search.SearchStats
	// Queries counts the pipeline executions aggregated here.
	Queries int
	// Retrievals counts evaluations: one per query on every engine — an
	// SQE_C query's three runs are evaluated together.
	Retrievals int
	// Features counts the expansion features produced by motif search.
	Features int
}

// Add accumulates o into p.
func (p *PipelineStats) Add(o *PipelineStats) {
	p.Stages.Add(o.Stages)
	p.Search.Add(o.Search)
	p.Queries += o.Queries
	p.Retrievals += o.Retrievals
	p.Features += o.Features
}

// String renders a per-stage breakdown with percentages of the pipeline
// total, followed by the retrieval counters.
func (p *PipelineStats) String() string {
	total := p.Stages.Total()
	pct := func(d time.Duration) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(d) / float64(total)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "pipeline: %d queries, %d retrievals, %d expansion features\n", p.Queries, p.Retrievals, p.Features)
	fmt.Fprintf(&sb, "  entity-link  %10v  %5.1f%%\n", p.Stages.EntityLink.Round(time.Microsecond), pct(p.Stages.EntityLink))
	fmt.Fprintf(&sb, "  motif-search %10v  %5.1f%%\n", p.Stages.MotifSearch.Round(time.Microsecond), pct(p.Stages.MotifSearch))
	fmt.Fprintf(&sb, "  query-build  %10v  %5.1f%%\n", p.Stages.QueryBuild.Round(time.Microsecond), pct(p.Stages.QueryBuild))
	fmt.Fprintf(&sb, "  retrieval    %10v  %5.1f%%\n", p.Stages.Retrieval.Round(time.Microsecond), pct(p.Stages.Retrieval))
	fmt.Fprintf(&sb, "  total        %10v\n", total.Round(time.Microsecond))
	fmt.Fprintf(&sb, "  search: %s", p.Search.String())
	return sb.String()
}

// BuildQueryStats is BuildQuery with the query-build stage timed into ps
// (which may be nil).
func (e *Expander) BuildQueryStats(userQuery string, qg QueryGraph, ps *PipelineStats) search.Node {
	start := time.Now()
	node := e.BuildQuery(userQuery, qg)
	if ps != nil {
		ps.Stages.QueryBuild += time.Since(start)
	}
	return node
}
