package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/motif"
	"repro/internal/search"
)

// ModelComparisonResult compares retrieval substrates under the same SQE
// expansion — beyond the paper (which fixes Indri's query-likelihood
// model), this answers whether SQE's gains depend on the retrieval
// function.
type ModelComparisonResult struct {
	Dataset string
	// Rows are keyed "model/run": e.g. "bm25/QL_Q", "bm25/SQE_T&S".
	Table PrecisionTable
	// Gain[model] is the P@10 improvement of SQE_T&S over QL_Q under
	// that model.
	Gain map[string]float64
}

// ModelComparison runs QL_Q and SQE_T&S under all three retrieval
// models.
func ModelComparison(s *Suite, inst *dataset.Instance) *ModelComparisonResult {
	res := &ModelComparisonResult{
		Dataset: inst.Name,
		Table: PrecisionTable{
			Title: fmt.Sprintf("Retrieval-model comparison (%s)", inst.Name),
			Tops:  []int{5, 10, 30, 100},
		},
		Gain: map[string]float64{},
	}
	for _, model := range []search.Model{search.ModelDirichlet, search.ModelJelinekMercer, search.ModelBM25} {
		r := s.NewRunner(inst)
		r.Searcher.Model = model
		base := s.evaluate("models", inst, model.String()+"/QL_Q", r.QLQ())
		sqe := s.evaluate("models", inst, model.String()+"/SQE_T&S", r.SQE(motif.SetTS, true))
		res.Table.Rows = append(res.Table.Rows,
			rowFromReport(model.String()+"/QL_Q", base, nil, res.Table.Tops),
			rowFromReport(model.String()+"/SQE_T&S", sqe, nil, res.Table.Tops),
		)
		res.Gain[model.String()] = eval.PercentGain(sqe.Mean[10], base.Mean[10])
	}
	return res
}

// String renders the comparison with per-model gains.
func (m *ModelComparisonResult) String() string {
	var sb strings.Builder
	sb.WriteString(m.Table.String())
	sb.WriteString("SQE_T&S gain over QL_Q at P@10:")
	for _, model := range []string{"dirichlet", "jelinek-mercer", "bm25"} {
		fmt.Fprintf(&sb, " %s %+.1f%%", model, m.Gain[model])
	}
	sb.WriteByte('\n')
	return sb.String()
}
