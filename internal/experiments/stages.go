package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
)

// StageProfileResult is the per-stage cost attribution of one dataset's
// full SQE_C workload (every query, all three motif sets) — the
// instrumented refinement of Table 4's two-row timing: instead of
// expansion vs. total, the pipeline is split into entity linking, motif
// search, query build and retrieval, with the retrieval evaluator's
// candidate/postings/heap counters attached.
type StageProfileResult struct {
	Dataset string
	Stats   *core.PipelineStats
}

// StageProfile runs the SQE_C workload of inst the way Engine.Do
// serves it — three expansions and one evaluation per query — with the
// stats layer threaded through every stage.
func StageProfile(s *Suite, inst *dataset.Instance) *StageProfileResult {
	r := s.NewRunner(inst)
	ps := &core.PipelineStats{}
	for qi := range inst.Queries {
		q := &inst.Queries[qi]
		r.Rank(q, RunDepth, ps, r.sqecTrees(q, true, ps)...)
		ps.Queries++
	}
	return &StageProfileResult{Dataset: inst.Name, Stats: ps}
}

// String renders the profile the way sqe-bench prints it.
func (r *StageProfileResult) String() string {
	return fmt.Sprintf("stage profile — %s\n%s", r.Dataset, r.Stats.String())
}
