package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/motif"
)

// Series is one line of a figure: a named sequence of (top → value)
// points.
type Series struct {
	Name   string
	Values map[int]float64
}

// Figure is a paper-style figure rendered as a value table (one row per
// series, one column per top).
type Figure struct {
	Title string
	Tops  []int
	// Unit annotates the values (e.g. "% improvement").
	Unit   string
	Series []Series
}

// String renders the figure as aligned text.
func (f *Figure) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s [%s]\n", f.Title, f.Unit)
	fmt.Fprintf(&sb, "%-14s", "")
	for _, k := range f.Tops {
		fmt.Fprintf(&sb, "%10s", fmt.Sprintf("P@%d", k))
	}
	sb.WriteByte('\n')
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "%-14s", s.Name)
		for _, k := range f.Tops {
			fmt.Fprintf(&sb, "%10.2f", s.Values[k])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Figure2Result reproduces paper Figure 2: the structural analysis of
// the ground-truth query graphs — per cycle length (3, 4, 5): (a) the
// precision contribution of that length's cycles, (b) the category
// ratio, (c) the extra-edge density. It also reports the ground truth's
// own precision at small tops, which the paper quotes as 0.833 / 0.624 /
// 0.588 / 0.547 for top-1/5/10/15.
type Figure2Result struct {
	// Lengths lists the analysed cycle lengths in order (3, 4, 5).
	Lengths []int
	// Contribution[L], CategoryRatio[L], ExtraEdgeDensity[L] are the
	// Figure 2a/2b/2c values.
	Contribution     map[int]float64
	CategoryRatio    map[int]float64
	ExtraEdgeDensity map[int]float64
	// CycleCount[L] is the total number of cycles of length L found.
	CycleCount map[int]int
	// GroundTruthP holds the ground-truth query graphs' precision at
	// tops 1, 5, 10, 15.
	GroundTruthP map[int]float64
}

// figure2ContribTops are the tops averaged for the contribution metric.
var figure2ContribTops = []int{5, 10, 15, 20, 30}

// Figure2 analyses the Image CLEF ground-truth query graphs.
func Figure2(s *Suite) *Figure2Result {
	inst := s.ImageCLEF
	r := s.NewRunner(inst)
	g := s.World.Graph

	res := &Figure2Result{
		Lengths:          []int{3, 4, 5},
		Contribution:     make(map[int]float64),
		CategoryRatio:    make(map[int]float64),
		ExtraEdgeDensity: make(map[int]float64),
		CycleCount:       make(map[int]int),
		GroundTruthP:     make(map[int]float64),
	}

	// Per-length structural statistics plus the per-length article sets
	// needed for the contribution runs.
	type queryCycles struct {
		q        *dataset.Query
		perLen   map[int][]kb.NodeID
		features map[kb.NodeID]float64
	}
	var all []queryCycles
	catSum := make(map[int]float64)
	denSum := make(map[int]float64)
	cntSum := make(map[int]int)
	queriesWith := make(map[int]int)
	for qi := range inst.Queries {
		q := &inst.Queries[qi]
		gt := inst.GroundTruth[q.ID]
		if len(gt) == 0 {
			continue
		}
		feats := make(map[kb.NodeID]float64, len(gt))
		arts := make([]kb.NodeID, 0, len(gt))
		for _, f := range gt {
			feats[f.Article] = f.Weight
			arts = append(arts, f.Article)
		}
		start := q.Entities[0]
		allowed := motif.InducedNodes(g, start, arts)
		ce := motif.NewCycleEnumerator(g, allowed)
		// See CycleEnumerator.ReciprocalArticleEdges: keeps the synthetic
		// subgraphs at Wikipedia-like sparsity for this analysis.
		ce.ReciprocalArticleEdges = true
		cycles := ce.Enumerate(start, 3, 5)
		stats := ce.Analyze(cycles)
		qc := queryCycles{q: q, perLen: make(map[int][]kb.NodeID), features: feats}
		for _, l := range res.Lengths {
			if st, ok := stats[l]; ok {
				catSum[l] += st.CategoryRatio
				denSum[l] += st.ExtraEdgeDensity
				cntSum[l] += st.Count
				queriesWith[l]++
			}
			qc.perLen[l] = ce.ArticlesOnCycles(cycles, l)
		}
		all = append(all, qc)
	}
	for _, l := range res.Lengths {
		if queriesWith[l] > 0 {
			res.CategoryRatio[l] = catSum[l] / float64(queriesWith[l])
			res.ExtraEdgeDensity[l] = denSum[l] / float64(queriesWith[l])
		}
		res.CycleCount[l] = cntSum[l]
	}

	// Contribution: precision using only length-L cycle articles as
	// expansion features, relative to the full ground-truth graph,
	// averaged over the small tops.
	runFor := func(sel func(qc queryCycles) []core.Feature) eval.Run {
		run := make(eval.Run, len(all))
		for _, qc := range all {
			qg := core.GroundTruthGraph(qc.q.Entities, sel(qc))
			node := r.Expander.BuildQuery(qc.q.Text, qg)
			run[qc.q.ID] = core.ResultNames(r.Rank(qc.q, RunDepth, nil, node))
		}
		return run
	}
	fullRun := runFor(func(qc queryCycles) []core.Feature {
		feats := make([]core.Feature, 0, len(qc.features))
		for a, w := range qc.features {
			feats = append(feats, core.Feature{Article: a, Weight: w})
		}
		core.SortFeatures(feats)
		return feats
	})
	s.show("figure2", inst, "full", fullRun)
	fullP := meanOverTops(inst, fullRun, figure2ContribTops)
	for _, l := range res.Lengths {
		ln := l
		run := runFor(func(qc queryCycles) []core.Feature {
			var feats []core.Feature
			for _, a := range qc.perLen[ln] {
				feats = append(feats, core.Feature{Article: a, Weight: qc.features[a]})
			}
			core.SortFeatures(feats)
			return feats
		})
		s.show("figure2", inst, fmt.Sprintf("L%d", l), run)
		if fullP > 0 {
			res.Contribution[l] = meanOverTops(inst, run, figure2ContribTops) / fullP
		}
	}

	// Ground-truth precision at the paper's quoted tops.
	ubRun := r.SQEUB()
	for _, k := range []int{1, 5, 10, 15} {
		res.GroundTruthP[k] = eval.MeanPrecisionAt(inst.Qrels, ubRun, k)
	}
	return res
}

// meanOverTops averages mean precision over several tops.
func meanOverTops(inst *dataset.Instance, run eval.Run, tops []int) float64 {
	var sum float64
	for _, k := range tops {
		sum += eval.MeanPrecisionAt(inst.Qrels, run, k)
	}
	return sum / float64(len(tops))
}

// String renders Figure 2 as three small tables.
func (f *Figure2Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 2: ground-truth cycle analysis\n")
	fmt.Fprintf(&sb, "%-22s", "cycle length")
	for _, l := range f.Lengths {
		fmt.Fprintf(&sb, "%10d", l)
	}
	sb.WriteByte('\n')
	rows := []struct {
		name string
		vals map[int]float64
	}{
		{"(a) contribution", f.Contribution},
		{"(b) category ratio", f.CategoryRatio},
		{"(c) extra-edge dens.", f.ExtraEdgeDensity},
	}
	for _, row := range rows {
		fmt.Fprintf(&sb, "%-22s", row.name)
		for _, l := range f.Lengths {
			fmt.Fprintf(&sb, "%10.3f", row.vals[l])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%-22s", "cycles found")
	for _, l := range f.Lengths {
		fmt.Fprintf(&sb, "%10d", f.CycleCount[l])
	}
	sb.WriteByte('\n')
	var tops []int
	for k := range f.GroundTruthP {
		tops = append(tops, k)
	}
	sort.Ints(tops)
	sb.WriteString("ground-truth precision:")
	for _, k := range tops {
		fmt.Fprintf(&sb, " P@%d=%.3f", k, f.GroundTruthP[k])
	}
	sb.WriteByte('\n')
	return sb.String()
}

// Figure5 reproduces paper Figure 5: the percentage improvement of
// SQE_T, SQE_T&S and SQE_S over the best baseline at each top, computed
// from the Table 1 reports.
func Figure5(t1 *Table1Result) *Figure {
	best := eval.BestOf(t1.Reports["QL_Q"], t1.Reports["QL_E"], t1.Reports["QL_Q&E"])
	fig := &Figure{
		Title: "Figure 5: % improvement over best(QL_Q, QL_E, QL_Q&E) — Image CLEF",
		Tops:  eval.Tops,
		Unit:  "% improvement",
	}
	for _, name := range []string{"SQE_T", "SQE_T&S", "SQE_S"} {
		s := Series{Name: name, Values: make(map[int]float64)}
		for _, k := range eval.Tops {
			s.Values[k] = eval.PercentGain(t1.Reports[name].Mean[k], best[k])
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Figure6 reproduces paper Figure 6 for one dataset: the percentage
// improvement of SQE_C (M), SQE_C (A) and the isolated expansion
// features (Q_X) over the best baseline execution at each top.
func Figure6(t2 *Table2Result) *Figure {
	best := eval.BestOf(
		t2.Reports["QL_Q"], t2.Reports["QL_E (M)"], t2.Reports["QL_E (A)"],
		t2.Reports["QL_Q&E (M)"], t2.Reports["QL_Q&E (A)"],
	)
	fig := &Figure{
		Title: fmt.Sprintf("Figure 6 (%s): %% improvement over best baseline", t2.Dataset),
		Tops:  eval.Tops,
		Unit:  "% improvement",
	}
	for _, name := range []string{"SQE_C (M)", "SQE_C (A)", "Q_X"} {
		s := Series{Name: name, Values: make(map[int]float64)}
		for _, k := range eval.Tops {
			s.Values[k] = eval.PercentGain(t2.Reports[name].Mean[k], best[k])
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}
