package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/motif"
	"repro/internal/prf"
	"repro/internal/search"
)

// SigAlpha is the significance level of the paper's daggers (p < 0.05).
const SigAlpha = 0.05

// Row is one line of a precision table.
type Row struct {
	Name string
	// Mean maps top → mean precision.
	Mean map[int]float64
	// Sig maps top → whether the improvement over the baseline is
	// statistically significant (rendered as †).
	Sig map[int]bool
	// Gain maps top → percentage gain vs the row's reference (Table 3's
	// %G columns); nil when the table has no gain columns.
	Gain map[int]float64
}

// PrecisionTable is a paper-style precision table.
type PrecisionTable struct {
	Title string
	Tops  []int
	Rows  []Row
	// ShowGain adds a %G column after every precision column.
	ShowGain bool
}

// String renders the table as aligned text.
func (t *PrecisionTable) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	// Header.
	fmt.Fprintf(&sb, "%-14s", "")
	for _, k := range t.Tops {
		fmt.Fprintf(&sb, "%9s", fmt.Sprintf("P@%d", k))
		if t.ShowGain {
			fmt.Fprintf(&sb, "%9s", "%G")
		}
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-14s", r.Name)
		for _, k := range t.Tops {
			cell := fmt.Sprintf("%.3f", r.Mean[k])
			if r.Sig[k] {
				cell += "†"
			}
			fmt.Fprintf(&sb, "%9s", cell)
			if t.ShowGain {
				if r.Gain == nil {
					fmt.Fprintf(&sb, "%9s", "-")
				} else {
					fmt.Fprintf(&sb, "%9s", fmt.Sprintf("%+.2f", r.Gain[k]))
				}
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// rowFromReport converts an eval report into a Row, marking significance
// against the element-wise best baseline when basePerQuery is non-nil.
func rowFromReport(name string, rep *eval.Report, basePerQuery map[int][]float64, tops []int) Row {
	r := Row{Name: name, Mean: make(map[int]float64), Sig: make(map[int]bool)}
	for _, k := range tops {
		r.Mean[k] = rep.Mean[k]
		if basePerQuery != nil {
			tstat, p := eval.PairedTTest(rep.PerQuery[k], basePerQuery[k])
			r.Sig[k] = tstat > 0 && p < SigAlpha
		}
	}
	return r
}

// Table1Result reproduces paper Table 1: the SQE configuration study on
// Image CLEF with manually selected entities.
type Table1Result struct {
	Table PrecisionTable
	// Reports keyed by row name, for downstream figures and tests.
	Reports map[string]*eval.Report
	// UBRatioWorst and UBRatioAvg are the paper's "SQE reaches X% of the
	// upper bound" statistics (71.41% worst case, 85.86% average).
	UBRatioWorst float64
	UBRatioAvg   float64
}

// Table1 runs the Image CLEF configuration study.
func Table1(s *Suite) *Table1Result {
	r := s.NewRunner(s.ImageCLEF)
	runs := map[string]eval.Run{
		"QL_Q":    r.QLQ(),
		"QL_E":    r.QLE(true),
		"QL_Q&E":  r.QLQE(true),
		"SQE_T":   r.SQE(motif.SetT, true),
		"SQE_T&S": r.SQE(motif.SetTS, true),
		"SQE_S":   r.SQE(motif.SetS, true),
		"SQE_UB":  r.SQEUB(),
	}
	reports := s.evaluateAll("table1", s.ImageCLEF, runs)
	base := eval.BestPerQuery(reports["QL_Q"], reports["QL_E"], reports["QL_Q&E"])
	res := &Table1Result{
		Table:   PrecisionTable{Title: "Table 1: Image CLEF configuration study (manual entities)", Tops: eval.Tops},
		Reports: reports,
	}
	for _, name := range []string{"QL_Q", "QL_E", "QL_Q&E"} {
		res.Table.Rows = append(res.Table.Rows, rowFromReport(name, reports[name], nil, eval.Tops))
	}
	for _, name := range []string{"SQE_T", "SQE_T&S", "SQE_S"} {
		res.Table.Rows = append(res.Table.Rows, rowFromReport(name, reports[name], base, eval.Tops))
	}
	res.Table.Rows = append(res.Table.Rows, rowFromReport("SQE_UB", reports["SQE_UB"], nil, eval.Tops))

	// Upper-bound ratios over the SQE rows and all tops.
	worst := 1.0
	var sum float64
	var n int
	for _, name := range []string{"SQE_T", "SQE_T&S", "SQE_S"} {
		for _, k := range eval.Tops {
			ub := reports["SQE_UB"].Mean[k]
			if ub <= 0 {
				continue
			}
			ratio := reports[name].Mean[k] / ub
			if ratio < worst {
				worst = ratio
			}
			sum += ratio
			n++
		}
	}
	describe(n > 0, "Table1: no upper-bound ratios computed")
	res.UBRatioWorst = worst
	res.UBRatioAvg = sum / float64(n)
	return res
}

// Table2Result reproduces paper Tables 2a/2b/2c: the SQE_C evaluation on
// one dataset with manual and automatic entities.
type Table2Result struct {
	Dataset string
	Table   PrecisionTable
	Reports map[string]*eval.Report
}

// Table2 runs the SQE_C evaluation for inst.
func Table2(s *Suite, inst *dataset.Instance) *Table2Result {
	r := s.NewRunner(inst)
	runs := map[string]eval.Run{
		"QL_Q":       r.QLQ(),
		"QL_E (M)":   r.QLE(true),
		"QL_E (A)":   r.QLE(false),
		"QL_Q&E (M)": r.QLQE(true),
		"QL_Q&E (A)": r.QLQE(false),
		"Q_X":        r.QX(true),
		"SQE_C (M)":  r.SQEC(true),
		"SQE_C (A)":  r.SQEC(false),
	}
	reports := s.evaluateAll("table2", inst, runs)
	base := eval.BestPerQuery(
		reports["QL_Q"], reports["QL_E (M)"], reports["QL_E (A)"],
		reports["QL_Q&E (M)"], reports["QL_Q&E (A)"],
	)
	res := &Table2Result{
		Dataset: inst.Name,
		Table:   PrecisionTable{Title: fmt.Sprintf("Table 2 (%s): SQE_C evaluation", inst.Name), Tops: eval.Tops},
		Reports: reports,
	}
	for _, name := range []string{"QL_Q", "QL_E (M)", "QL_E (A)", "QL_Q&E (M)", "QL_Q&E (A)", "Q_X"} {
		res.Table.Rows = append(res.Table.Rows, rowFromReport(name, reports[name], nil, eval.Tops))
	}
	for _, name := range []string{"SQE_C (M)", "SQE_C (A)"} {
		res.Table.Rows = append(res.Table.Rows, rowFromReport(name, reports[name], base, eval.Tops))
	}
	return res
}

// Table3Tops are the tops the paper reports for the PRF comparison.
var Table3Tops = []int{5, 10, 15, 20, 30}

// Table3Result reproduces paper Tables 3a/3b/3c: PRF alone collapses,
// SQE∘PRF holds or improves on SQE_C. %G columns are relative to the
// corresponding automatic rows of Table 2, as in the paper.
type Table3Result struct {
	Dataset string
	Table   PrecisionTable
	Reports map[string]*eval.Report
}

// Table3 runs the PRF comparison for inst; t2 supplies the reference
// precision rows (it must come from the same suite and instance).
func Table3(s *Suite, inst *dataset.Instance, t2 *Table2Result) *Table3Result {
	describe(t2.Dataset == inst.Name, "Table3: reference Table2 is for %q, want %q", t2.Dataset, inst.Name)
	r := s.NewRunner(inst)
	// Pure relevance-model replacement for the PRF-alone rows (the
	// configuration whose collapse the paper demonstrates)...
	cfg := prf.DefaultConfig()
	// ...but the SQE∘PRF combination keeps the SQE query and interpolates
	// the feedback model into it ("SQE is used to generate a query, then
	// this query is used by PRF to reformulate"), i.e. RM3 on top of the
	// expanded query.
	cfgSQE := cfg
	cfgSQE.OrigWeight = 0.5
	runs := map[string]eval.Run{
		"PRF_Q":     r.PRFRun(cfg, func(q *dataset.Query) search.Node { return r.Expander.QLQuery(q.Text) }),
		"PRF_E":     r.PRFRun(cfg, func(q *dataset.Query) search.Node { return r.Expander.QLEntities(r.Entities(q, false)) }),
		"PRF_Q&E":   r.PRFRun(cfg, func(q *dataset.Query) search.Node { return r.Expander.QLQueryEntities(q.Text, r.Entities(q, false)) }),
		"SQE_C/PRF": r.SQECPRF(cfgSQE, false),
	}
	reports := s.evaluateAll("table3", inst, runs)
	refs := map[string]string{
		"PRF_Q":     "QL_Q",
		"PRF_E":     "QL_E (A)",
		"PRF_Q&E":   "QL_Q&E (A)",
		"SQE_C/PRF": "SQE_C (A)",
	}
	res := &Table3Result{
		Dataset: inst.Name,
		Table: PrecisionTable{
			Title:    fmt.Sprintf("Table 3 (%s): PRF comparison (%%G vs Table 2 automatic rows)", inst.Name),
			Tops:     Table3Tops,
			ShowGain: true,
		},
		Reports: reports,
	}
	for _, name := range []string{"PRF_Q", "PRF_E", "PRF_Q&E", "SQE_C/PRF"} {
		row := rowFromReport(name, reports[name], nil, Table3Tops)
		ref := t2.Reports[refs[name]]
		row.Gain = make(map[int]float64, len(Table3Tops))
		for _, k := range Table3Tops {
			row.Gain[k] = eval.PercentGain(reports[name].Mean[k], ref.Mean[k])
		}
		res.Table.Rows = append(res.Table.Rows, row)
	}
	return res
}

// Table4Result reproduces paper Table 4: expansion times per dataset and
// motif configuration, plus the total pipeline time.
type Table4Result struct {
	Datasets []string
	// Expansion[set][dataset] is the time to build all query graphs.
	Expansion map[motif.Set]map[string]time.Duration
	// Total[dataset] is the full SQE_C pipeline time.
	Total map[string]time.Duration
}

// Table4 measures expansion and total times on every dataset. Entities
// are selected manually, matching the paper's configuration experiments.
func Table4(s *Suite) *Table4Result {
	res := &Table4Result{
		Expansion: map[motif.Set]map[string]time.Duration{
			motif.SetT:  {},
			motif.SetTS: {},
			motif.SetS:  {},
		},
		Total: map[string]time.Duration{},
	}
	for _, inst := range s.Instances() {
		r := s.NewRunner(inst)
		res.Datasets = append(res.Datasets, inst.Name)
		for _, set := range []motif.Set{motif.SetT, motif.SetTS, motif.SetS} {
			res.Expansion[set][inst.Name] = r.ExpansionTime(set, true)
		}
		res.Total[inst.Name] = r.TotalTime(true)
	}
	return res
}

// String renders Table 4 in the paper's layout (milliseconds).
func (t *Table4Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table 4: execution times (ms)\n")
	fmt.Fprintf(&sb, "%-12s", "")
	for _, d := range t.Datasets {
		fmt.Fprintf(&sb, "%14s", d)
	}
	sb.WriteByte('\n')
	for _, set := range []motif.Set{motif.SetT, motif.SetTS, motif.SetS} {
		fmt.Fprintf(&sb, "%-12s", "SQE_"+set.String())
		for _, d := range t.Datasets {
			fmt.Fprintf(&sb, "%14.2f", float64(t.Expansion[set][d].Microseconds())/1000)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%-12s", "Total Time")
	for _, d := range t.Datasets {
		fmt.Fprintf(&sb, "%14.2f", float64(t.Total[d].Microseconds())/1000)
	}
	sb.WriteByte('\n')
	return sb.String()
}
