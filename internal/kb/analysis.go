package kb

import (
	"fmt"
	"sort"
	"strings"
)

// Graph analysis utilities behind the paper's Section 2.1 ("analysis of
// the Wikipedia structure"): degree distributions, connectivity and
// distance profiles of the article graph. cmd/kb-stats surfaces them.

// DegreeStats summarises a degree distribution.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// P50, P90, P99 are percentiles of the distribution.
	P50, P90, P99 int
}

// computeDegreeStats builds stats from raw degrees (consumed, sorted).
func computeDegreeStats(degrees []int) DegreeStats {
	if len(degrees) == 0 {
		return DegreeStats{}
	}
	sort.Ints(degrees)
	var sum int
	for _, d := range degrees {
		sum += d
	}
	pct := func(p float64) int {
		i := int(p * float64(len(degrees)-1))
		return degrees[i]
	}
	return DegreeStats{
		Min:  degrees[0],
		Max:  degrees[len(degrees)-1],
		Mean: float64(sum) / float64(len(degrees)),
		P50:  pct(0.50),
		P90:  pct(0.90),
		P99:  pct(0.99),
	}
}

// String implements fmt.Stringer.
func (d DegreeStats) String() string {
	return fmt.Sprintf("min %d, p50 %d, mean %.1f, p90 %d, p99 %d, max %d",
		d.Min, d.P50, d.Mean, d.P90, d.P99, d.Max)
}

// OutDegreeStats profiles article out-degrees (hyperlinks).
func OutDegreeStats(g *Graph) DegreeStats {
	var degrees []int
	g.Articles(func(a NodeID) bool {
		degrees = append(degrees, len(g.OutLinks(a)))
		return true
	})
	return computeDegreeStats(degrees)
}

// InDegreeStats profiles article in-degrees.
func InDegreeStats(g *Graph) DegreeStats {
	var degrees []int
	g.Articles(func(a NodeID) bool {
		degrees = append(degrees, len(g.InLinks(a)))
		return true
	})
	return computeDegreeStats(degrees)
}

// CategoryFanoutStats profiles how many categories each article belongs
// to — the quantity that makes the triangular motif's exact-superset
// condition selective.
func CategoryFanoutStats(g *Graph) DegreeStats {
	var degrees []int
	g.Articles(func(a NodeID) bool {
		degrees = append(degrees, len(g.Categories(a)))
		return true
	})
	return computeDegreeStats(degrees)
}

// ConnectedComponents returns the sizes of the weakly connected
// components of the article graph (hyperlinks only, direction ignored),
// largest first.
func ConnectedComponents(g *Graph) []int {
	n := g.NumNodes()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var sizes []int
	var queue []NodeID
	next := int32(0)
	g.Articles(func(start NodeID) bool {
		if comp[start] >= 0 {
			return true
		}
		id := next
		next++
		size := 0
		queue = append(queue[:0], start)
		comp[start] = id
		for len(queue) > 0 {
			cur := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			for _, nbrs := range [][]NodeID{g.OutLinks(cur), g.InLinks(cur)} {
				for _, nb := range nbrs {
					if comp[nb] < 0 {
						comp[nb] = id
						queue = append(queue, nb)
					}
				}
			}
		}
		sizes = append(sizes, size)
		return true
	})
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// AnalysisReport bundles the structural profile of a graph.
type AnalysisReport struct {
	Stats          Stats
	OutDegree      DegreeStats
	InDegree       DegreeStats
	CategoryFanout DegreeStats
	// ComponentSizes holds the weakly-connected component sizes of the
	// article graph, largest first (truncated to the top 10).
	ComponentSizes []int
	// NumComponents is the total component count.
	NumComponents int
}

// Analyze computes the full structural profile.
func Analyze(g *Graph) AnalysisReport {
	comps := ConnectedComponents(g)
	r := AnalysisReport{
		Stats:          ComputeStats(g),
		OutDegree:      OutDegreeStats(g),
		InDegree:       InDegreeStats(g),
		CategoryFanout: CategoryFanoutStats(g),
		NumComponents:  len(comps),
	}
	if len(comps) > 10 {
		comps = comps[:10]
	}
	r.ComponentSizes = comps
	return r
}

// String renders the report.
func (r AnalysisReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph: %s\n", r.Stats)
	fmt.Fprintf(&sb, "article out-degree:  %s\n", r.OutDegree)
	fmt.Fprintf(&sb, "article in-degree:   %s\n", r.InDegree)
	fmt.Fprintf(&sb, "categories/article:  %s\n", r.CategoryFanout)
	fmt.Fprintf(&sb, "components: %d (largest %v)\n", r.NumComponents, r.ComponentSizes)
	return sb.String()
}
