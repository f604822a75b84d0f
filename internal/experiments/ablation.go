package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/motif"
)

// AblationResult reports mean precision for a set of design-choice
// ablations of SQE (DESIGN.md §13), all on one dataset with manual
// entities and the combined motif set so differences isolate the ablated
// choice.
type AblationResult struct {
	Dataset string
	Table   PrecisionTable
	Reports map[string]*eval.Report
}

// ablationTops focuses on the tops where the design choices bite.
var ablationTops = []int{5, 10, 20, 100, 1000}

// Ablations runs the ablation suite on inst:
//
//	full            — SQE_T&S as evaluated everywhere else
//	uniform-weights — expansion features weighted 1 instead of |m_a|
//	single-link     — motifs without the double-link requirement
//	no-categories   — motifs without the category conditions
//	splice-2/50     — SQE_C with cut points 2 and 50 instead of 5 and 200
//	mu-250          — retrieval with Dirichlet μ=250 instead of 2500
//	uw-titles       — titles matched as unordered windows (#uwN, slack 2)
//	                  instead of exact phrases
func Ablations(s *Suite, inst *dataset.Instance) *AblationResult {
	res := &AblationResult{
		Dataset: inst.Name,
		Table: PrecisionTable{
			Title: fmt.Sprintf("Ablations (%s): SQE design choices", inst.Name),
			Tops:  ablationTops,
		},
		Reports: map[string]*eval.Report{},
	}
	add := func(name string, run eval.Run) {
		rep := s.evaluate("ablations", inst, name, run)
		res.Reports[name] = rep
		res.Table.Rows = append(res.Table.Rows, rowFromReport(name, rep, nil, ablationTops))
	}

	// Full configuration.
	r := s.NewRunner(inst)
	add("full", r.SQE(motif.SetTS, true))

	// Uniform feature weights.
	r = s.NewRunner(inst)
	r.Expander.UniformFeatureWeights = true
	add("uniform-weights", r.SQE(motif.SetTS, true))

	// Single-link motifs.
	r = s.NewRunner(inst)
	r.Expander.Matcher().RequireReciprocal = false
	add("single-link", r.SQE(motif.SetTS, true))

	// No category conditions.
	r = s.NewRunner(inst)
	r.Expander.Matcher().UseCategories = false
	add("no-categories", r.SQE(motif.SetTS, true))

	// Alternative SQE_C splice cuts.
	r = s.NewRunner(inst)
	r.SpliceCuts = [2]int{2, 50}
	add("splice-2/50", r.SQEC(true))

	// Small Dirichlet μ.
	r = s.NewRunner(inst)
	r.Searcher.Mu = 250
	add("mu-250", r.SQE(motif.SetTS, true))

	// Unordered windows (slack 2) instead of exact title phrases.
	r = s.NewRunner(inst)
	r.Expander.TitleWindowSlack = 2
	add("uw-titles", r.SQE(motif.SetTS, true))

	return res
}

// MuSweepResult reports the retrieval substrate's sensitivity to the
// Dirichlet smoothing parameter under the full SQE_T&S query.
type MuSweepResult struct {
	Dataset string
	Mus     []float64
	// P10[i] is mean P@10 at Mus[i].
	P10 []float64
}

// MuSweep evaluates a μ grid.
func MuSweep(s *Suite, inst *dataset.Instance, mus []float64) *MuSweepResult {
	res := &MuSweepResult{Dataset: inst.Name, Mus: mus}
	for _, mu := range mus {
		r := s.NewRunner(inst)
		r.Searcher.Mu = mu
		run := r.SQE(motif.SetTS, true)
		res.P10 = append(res.P10, eval.MeanPrecisionAt(inst.Qrels, run, 10))
	}
	return res
}

// String renders the sweep.
func (m *MuSweepResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dirichlet μ sweep (%s), SQE_T&S\n", m.Dataset)
	for i, mu := range m.Mus {
		fmt.Fprintf(&sb, "  μ=%-8.0f P@10=%.3f\n", mu, m.P10[i])
	}
	return sb.String()
}
