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

// run executes one query builder over every query of the instance.
func (r *Runner) run(build func(q *dataset.Query) search.Node) eval.Run {
	out := make(eval.Run, len(r.Inst.Queries))
	for qi := range r.Inst.Queries {
		q := &r.Inst.Queries[qi]
		node := build(q)
		if node == nil || search.IsEmpty(node) {
			out[q.ID] = nil
			continue
		}
		out[q.ID] = core.ResultNames(r.Searcher.Search(node, RunDepth))
	}
	return out
}

// QLQ is the non-expanded user query baseline.
func (r *Runner) QLQ() eval.Run {
	return r.run(func(q *dataset.Query) search.Node {
		return r.Expander.QLQuery(q.Text)
	})
}

// QLE queries with the query entities only.
func (r *Runner) QLE(manual bool) eval.Run {
	return r.run(func(q *dataset.Query) search.Node {
		return r.Expander.QLEntities(r.Entities(q, manual))
	})
}

// QLQE combines user query and entities.
func (r *Runner) QLQE(manual bool) eval.Run {
	return r.run(func(q *dataset.Query) search.Node {
		return r.Expander.QLQueryEntities(q.Text, r.Entities(q, manual))
	})
}

// QX queries with expansion features alone (no user query, no entities);
// features come from the combined motif set.
func (r *Runner) QX(manual bool) eval.Run {
	return r.run(func(q *dataset.Query) search.Node {
		qg := r.Expander.BuildQueryGraph(r.Entities(q, manual), motif.SetTS)
		return r.Expander.QLExpansionOnly(qg)
	})
}

// SQE runs the full three-part expanded query with the given motif set.
func (r *Runner) SQE(set motif.Set, manual bool) eval.Run {
	return r.run(func(q *dataset.Query) search.Node {
		qg := r.Expander.BuildQueryGraph(r.Entities(q, manual), set)
		return r.Expander.BuildQuery(q.Text, qg)
	})
}

// SQEUB runs the upper bound: expansion features from the ground-truth
// query graphs instead of motif search.
func (r *Runner) SQEUB() eval.Run {
	return r.run(func(q *dataset.Query) search.Node {
		qg := core.GroundTruthGraph(q.Entities, r.Inst.GroundTruth[q.ID])
		return r.Expander.BuildQuery(q.Text, qg)
	})
}

// SQEC runs the paper's combined configuration: ranks 1–5 from SQE_T,
// 6–200 from SQE_T&S, the rest from SQE_S (Section 2.2.1 / 4.1).
func (r *Runner) SQEC(manual bool) eval.Run {
	runT := r.SQE(motif.SetT, manual)
	runTS := r.SQE(motif.SetTS, manual)
	runS := r.SQE(motif.SetS, manual)
	out := make(eval.Run, len(runT))
	for id := range runT {
		out[id] = core.SpliceC(RunDepth, runT[id], runTS[id], runS[id])
	}
	return out
}

// PRFRun applies pure relevance-model feedback (the paper's PRF
// configuration) on top of a base query builder.
func (r *Runner) PRFRun(cfg prf.Config, build func(q *dataset.Query) search.Node) eval.Run {
	return r.run(func(q *dataset.Query) search.Node {
		base := build(q)
		if base == nil || search.IsEmpty(base) {
			return nil
		}
		// run drops a search error; the feedback search's goes the same
		// way (nil scores the query as empty).
		node, _ := prf.Reformulate(context.Background(), r.Searcher, r.Searcher.Index(), base, cfg)
		return node
	})
}

// SQECPRF runs SQE∘PRF: each of the three SQE queries is PRF-reformulated
// before retrieval and the three result lists are spliced as in SQE_C.
func (r *Runner) SQECPRF(cfg prf.Config, manual bool) eval.Run {
	runOne := func(set motif.Set) eval.Run {
		return r.PRFRun(cfg, func(q *dataset.Query) search.Node {
			qg := r.Expander.BuildQueryGraph(r.Entities(q, manual), set)
			return r.Expander.BuildQuery(q.Text, qg)
		})
	}
	runT := runOne(motif.SetT)
	runTS := runOne(motif.SetTS)
	runS := runOne(motif.SetS)
	out := make(eval.Run, len(runT))
	for id := range runT {
		out[id] = core.SpliceC(RunDepth, runT[id], runTS[id], runS[id])
	}
	return out
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
// three expansions, three retrievals and splicing (Table 4's Total Time
// row).
func (r *Runner) TotalTime(manual bool) time.Duration {
	start := time.Now()
	_ = r.SQEC(manual)
	return time.Since(start)
}

// Evaluate is a convenience wrapper over eval.Evaluate.
func (r *Runner) Evaluate(name string, run eval.Run) *eval.Report {
	return eval.Evaluate(name, r.Inst.Qrels, run)
}

// describe asserts a suite invariant with a clear panic; used by
// experiment constructors.
func describe(cond bool, msg string, args ...any) {
	if !cond {
		panic("experiments: " + fmt.Sprintf(msg, args...))
	}
}
