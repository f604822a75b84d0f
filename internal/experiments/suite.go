// Package experiments wires the substrates together and regenerates
// every table and figure of the paper's evaluation (Section 4). Each
// experiment returns a typed result whose String() renders rows shaped
// like the paper's, so cmd/sqe-bench output can be eyeballed against the
// original.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/entitylink"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/motif"
	"repro/internal/prf"
	"repro/internal/search"
	"repro/internal/wikigen"
)

// RunDepth is the ranked-list depth every run is evaluated at (the
// paper's deepest reported top).
const RunDepth = 1000

// Suite is a fully generated experimental environment: the KB world, the
// three dataset instances and the automatic entity linker.
type Suite struct {
	World     *wikigen.World
	ImageCLEF *dataset.Instance
	CHiC2012  *dataset.Instance
	CHiC2013  *dataset.Instance
	Linker    *entitylink.Linker

	// observe, when non-nil, is shown every named run an experiment
	// ranks, before the run is scored.
	observe func(experiment string, inst *dataset.Instance, row string, run eval.Run)
}

// NewSuite generates the environment at the given scale. Generation is
// deterministic; at ScaleDefault it takes a few seconds, at ScaleSmall
// well under a second.
func NewSuite(s dataset.Scale) (*Suite, error) {
	cfg := wikigen.DefaultConfig()
	if s == dataset.ScaleSmall {
		cfg = wikigen.SmallConfig()
	}
	world, err := wikigen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	ic, err := dataset.BuildImageCLEF(world, s)
	if err != nil {
		return nil, err
	}
	c12, c13, err := dataset.BuildCHiC(world, s)
	if err != nil {
		return nil, err
	}
	return &Suite{
		World:     world,
		ImageCLEF: ic,
		CHiC2012:  c12,
		CHiC2013:  c13,
		Linker:    dataset.BuildLinker(world, dataset.DefaultLinkerOptions()),
	}, nil
}

// Instances returns the three instances in the paper's order.
func (s *Suite) Instances() []*dataset.Instance {
	return []*dataset.Instance{s.ImageCLEF, s.CHiC2012, s.CHiC2013}
}

// Runner evaluates runs over one instance.
type Runner struct {
	Inst     *dataset.Instance
	Searcher *search.Searcher
	Expander *core.Expander
	Linker   *entitylink.Linker
	// SpliceCuts are the ranks at which Rank splices SQE_C's three runs;
	// NewRunner sets the paper's core.DefaultSpliceCuts.
	SpliceCuts [2]int

	// entity cache per (query, manual) so repeated runs agree and the
	// automatic linker is invoked once per query.
	entityCache map[entityKey][]kb.NodeID
}

type entityKey struct {
	id     string
	manual bool
}

// NewRunner builds a Runner for inst using the suite's linker.
func (s *Suite) NewRunner(inst *dataset.Instance) *Runner {
	return &Runner{
		Inst:        inst,
		Searcher:    search.NewSearcher(inst.Index),
		Expander:    core.NewExpander(s.World.Graph, analysis.Standard()),
		Linker:      s.Linker,
		SpliceCuts:  core.DefaultSpliceCuts,
		entityCache: make(map[entityKey][]kb.NodeID),
	}
}

// Entities returns the query nodes for q: the manually selected entities
// (the (M) runs) or the automatic linker's output over the query text
// (the (A) runs).
func (r *Runner) Entities(q *dataset.Query, manual bool) []kb.NodeID {
	key := entityKey{q.ID, manual}
	if e, ok := r.entityCache[key]; ok {
		return e
	}
	var e []kb.NodeID
	if manual {
		e = q.Entities
	} else {
		e = r.Linker.LinkArticles(q.Text)
	}
	r.entityCache[key] = e
	return e
}

// run ranks every query of the instance at RunDepth, each from the
// trees trees(q) builds.
func (r *Runner) run(trees func(q *dataset.Query) []search.Node) eval.Run {
	out := make(eval.Run, len(r.Inst.Queries))
	for qi := range r.Inst.Queries {
		q := &r.Inst.Queries[qi]
		out[q.ID] = core.ResultNames(r.Rank(q, RunDepth, nil, trees(q)...))
	}
	return out
}

// one adapts a one-tree builder to run.
func one(build func(q *dataset.Query) search.Node) func(q *dataset.Query) []search.Node {
	return func(q *dataset.Query) []search.Node { return []search.Node{build(q)} }
}

// Rank ranks one query's trees with the two calls Engine.Do makes: one
// Evaluate of every tree, then — for SQE_C's three trees (T, T&S, S) —
// the splice at SpliceCuts. One tree's ranking is returned as it is.
// ps, when non-nil, is charged the evaluation: its time, its counters
// and one retrieval. An evaluation error panics with q's ID.
func (r *Runner) Rank(q *dataset.Query, k int, ps *core.PipelineStats, trees ...search.Node) []search.Result {
	start := time.Now()
	ev, err := r.Searcher.Evaluate(context.Background(), trees, k, search.EvalOptions{CollectStats: ps != nil})
	describe(err == nil, "%s: evaluate: %v", q.ID, err)
	if ps != nil {
		ps.Stages.Retrieval += time.Since(start)
		ps.Search.Add(ev.Stats)
		ps.Retrievals++
	}
	if len(ev.Results) == len(sqecSets) {
		return core.SpliceResults(k, r.SpliceCuts, ev.Results[0], ev.Results[1], ev.Results[2])
	}
	return ev.Results[0]
}

// QLQ is the non-expanded user query baseline.
func (r *Runner) QLQ() eval.Run {
	return r.run(one(func(q *dataset.Query) search.Node {
		return r.Expander.QLQuery(q.Text)
	}))
}

// QLE queries with the query entities only.
func (r *Runner) QLE(manual bool) eval.Run {
	return r.run(one(func(q *dataset.Query) search.Node {
		return r.Expander.QLEntities(r.Entities(q, manual))
	}))
}

// QLQE combines user query and entities.
func (r *Runner) QLQE(manual bool) eval.Run {
	return r.run(one(func(q *dataset.Query) search.Node {
		return r.Expander.QLQueryEntities(q.Text, r.Entities(q, manual))
	}))
}

// QX queries with expansion features alone (no user query, no entities);
// features come from the combined motif set.
func (r *Runner) QX(manual bool) eval.Run {
	return r.run(one(func(q *dataset.Query) search.Node {
		qg := r.Expander.BuildQueryGraph(r.Entities(q, manual), motif.SetTS)
		return r.Expander.QLExpansionOnly(qg)
	}))
}

// SQE runs the full three-part expanded query with the given motif set.
func (r *Runner) SQE(set motif.Set, manual bool) eval.Run {
	return r.run(one(func(q *dataset.Query) search.Node {
		qg := r.Expander.BuildQueryGraph(r.Entities(q, manual), set)
		return r.Expander.BuildQuery(q.Text, qg)
	}))
}

// SQEUB runs the upper bound: expansion features from the ground-truth
// query graphs instead of motif search.
func (r *Runner) SQEUB() eval.Run {
	return r.run(one(func(q *dataset.Query) search.Node {
		qg := core.GroundTruthGraph(q.Entities, r.Inst.GroundTruth[q.ID])
		return r.Expander.BuildQuery(q.Text, qg)
	}))
}

// sqecSets is the run order of the SQE_C combination, the order Rank
// splices in.
var sqecSets = [3]motif.Set{motif.SetT, motif.SetTS, motif.SetS}

// sqecTrees builds q's three SQE_C trees, timing entity lookup, motif
// search and query build into ps when it is non-nil.
func (r *Runner) sqecTrees(q *dataset.Query, manual bool, ps *core.PipelineStats) []search.Node {
	start := time.Now()
	nodes := r.Entities(q, manual)
	if ps != nil {
		ps.Stages.EntityLink += time.Since(start)
	}
	start = time.Now()
	user := r.Expander.QLQuery(q.Text)
	if ps != nil {
		ps.Stages.QueryBuild += time.Since(start)
	}
	trees := make([]search.Node, len(sqecSets))
	for i, set := range sqecSets {
		qg := r.Expander.BuildQueryGraphCached(nodes, set, nil, ps)
		trees[i] = r.Expander.BuildQueryStats(user, qg, ps)
	}
	return trees
}

// SQEC runs the paper's combined configuration: ranks 1–5 from SQE_T,
// 6–200 from SQE_T&S, the rest from SQE_S (Section 2.2.1 / 4.1).
func (r *Runner) SQEC(manual bool) eval.Run {
	return r.run(func(q *dataset.Query) []search.Node {
		return r.sqecTrees(q, manual, nil)
	})
}

// reformulate applies relevance-model feedback to one tree, as Engine.Do
// does; a feedback error panics with q's ID.
func (r *Runner) reformulate(q *dataset.Query, cfg prf.Config, base search.Node) search.Node {
	node, err := prf.Reformulate(context.Background(), r.Searcher, r.Searcher.Index(), base, cfg)
	describe(err == nil, "%s: PRF feedback: %v", q.ID, err)
	return node
}

// PRFRun applies pure relevance-model feedback (the paper's PRF
// configuration) on top of a base query builder.
func (r *Runner) PRFRun(cfg prf.Config, build func(q *dataset.Query) search.Node) eval.Run {
	return r.run(one(func(q *dataset.Query) search.Node {
		return r.reformulate(q, cfg, build(q))
	}))
}

// SQECPRF runs SQE∘PRF: each of the three SQE queries is PRF-reformulated
// before retrieval and the three result lists are spliced as in SQE_C.
func (r *Runner) SQECPRF(cfg prf.Config, manual bool) eval.Run {
	return r.run(func(q *dataset.Query) []search.Node {
		trees := r.sqecTrees(q, manual, nil)
		for i, tree := range trees {
			trees[i] = r.reformulate(q, cfg, tree)
		}
		return trees
	})
}

// ExpansionTime measures the wall-clock time spent building the query
// graphs of every query with the given motif set (paper Table 4's
// SQE_T/SQE_T&S/SQE_S rows).
func (r *Runner) ExpansionTime(set motif.Set, manual bool) time.Duration {
	start := time.Now()
	for qi := range r.Inst.Queries {
		q := &r.Inst.Queries[qi]
		_ = r.Expander.BuildQueryGraph(r.Entities(q, manual), set)
	}
	return time.Since(start)
}

// TotalTime measures the whole SQE_C pipeline end to end: entity lookup,
// three expansions, one evaluation of the three trees and the splice
// (Table 4's Total Time row).
func (r *Runner) TotalTime(manual bool) time.Duration {
	start := time.Now()
	_ = r.SQEC(manual)
	return time.Since(start)
}

// show hands one named run of an experiment to the observer, if any.
func (s *Suite) show(experiment string, inst *dataset.Instance, row string, run eval.Run) {
	if s.observe != nil {
		s.observe(experiment, inst, row, run)
	}
}

// evaluate scores one row of an experiment on inst.
func (s *Suite) evaluate(experiment string, inst *dataset.Instance, row string, run eval.Run) *eval.Report {
	s.show(experiment, inst, row, run)
	return eval.Evaluate(row, inst.Qrels, run)
}

// evaluateAll scores every row of an experiment on inst, keyed like runs.
func (s *Suite) evaluateAll(experiment string, inst *dataset.Instance, runs map[string]eval.Run) map[string]*eval.Report {
	reports := make(map[string]*eval.Report, len(runs))
	for row, run := range runs {
		reports[row] = s.evaluate(experiment, inst, row, run)
	}
	return reports
}

// describe asserts a suite invariant with a clear panic; used by
// experiment constructors.
func describe(cond bool, msg string, args ...any) {
	if !cond {
		panic("experiments: " + fmt.Sprintf(msg, args...))
	}
}
