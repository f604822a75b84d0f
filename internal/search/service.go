package search

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/index"
	"repro/internal/rpc"
)

// The RPC methods a shard server exposes. See DESIGN.md §10 for the
// two-phase protocol they implement.
const (
	MethodInfo  = "shard.info"
	MethodStats = "shard.stats"
	MethodEval  = "shard.eval"
)

// InfoResponse is the handshake: it identifies the shard and carries
// the shard-local corpus totals the coordinator sums into the global
// collection statistics (integer sums, so the totals match the
// unsharded index bit for bit).
type InfoResponse struct {
	Shard     int
	NumShards int
	NumDocs   int
	TotalToks int64
}

// StatsRequest asks a shard to flatten a query against its local index
// and report per-leaf collection statistics (phase A of a search).
type StatsRequest struct {
	Query Node
}

// LeafStats are one leaf's shard-local collection statistics.
type LeafStats struct {
	CF int64
	DF float64
}

// StatsResponse carries the per-leaf statistics in flatten order. The
// leaf count doubles as the cross-shard consistency check: flatten is
// structure-driven, so every shard must produce the same count.
type StatsResponse struct {
	Leaves []LeafStats
}

// LeafOverride is the global statistics the coordinator pushes down for
// one leaf in phase B: the exact cross-shard sums plus the globally
// floored collection probability.
type LeafOverride struct {
	CF       int64
	DF       float64
	CollProb float64
}

// EvalRequest asks a partition to evaluate a query under coordinator-
// supplied global statistics (phase B): override each leaf's statistics
// with Overrides, score with a scorer built from the global
// NumDocs/TotalToks, and return the local top k remapped to global
// DocIDs. It is the one request shape in process and on the wire. Query
// is set only on a shard server, decoded from the frame (it re-flattens
// the tree — no per-query state survives between the two phases); the
// coordinator sends the tree it encoded for phase A instead.
type EvalRequest struct {
	Query Node
	K     int
	// Model and params pin the scoring function; the shard applies them
	// verbatim (no local defaults beyond ModelParams.withDefaults, which
	// the coordinator has already resolved).
	Model          int
	Mu             float64
	Lambda         float64
	K1             float64
	B              float64
	DisablePruning bool
	// Global collection statistics. The shard derives avgDocLen as
	// float64(TotalToks)/float64(NumDocs) — the same expression
	// index.Sharded.AvgDocLen evaluates, so the scorer closure is built
	// over bit-identical inputs.
	NumDocs   int
	TotalToks int64
	Overrides []LeafOverride
	WantStats bool
	// forcePrune is Searcher.forcePrune for in-process partitions
	// (test-only) and backfill is EvalOptions.Backfill; unexported, so
	// neither reaches the wire, and a shard server ranks every frame.
	forcePrune, backfill bool
}

// WireResult is one ranked document crossing the wire; Doc is the
// GLOBAL DocID (the shard remaps before answering).
type WireResult struct {
	Doc   int64
	Name  string
	Score float64
}

// WireEvalStats are the shard evaluator's deterministic counters.
type WireEvalStats struct {
	CandidatesExamined int64
	PostingsAdvanced   int64
	DocsSkipped        int64
	BoundEvaluations   int64
	BlocksDecoded      int64
	BlocksTotal        int64
	HeapPushes         int64
	HeapEvictions      int64
}

// EvalResponse carries a shard's top-k slice of the global ranking.
type EvalResponse struct {
	Results []WireResult
	Stats   *WireEvalStats
}

// searchStats converts the wire counters back into a SearchStats.
func (ws *WireEvalStats) searchStats() SearchStats {
	return SearchStats{
		CandidatesExamined: ws.CandidatesExamined,
		PostingsAdvanced:   ws.PostingsAdvanced,
		DocsSkipped:        ws.DocsSkipped,
		BoundEvaluations:   ws.BoundEvaluations,
		BlocksDecoded:      ws.BlocksDecoded,
		BlocksTotal:        ws.BlocksTotal,
		HeapPushes:         ws.HeapPushes,
		HeapEvictions:      ws.HeapEvictions,
	}
}

// validate rejects an eval frame no well-formed coordinator sends. An
// unknown model would otherwise fall through buildScorer's default to
// Dirichlet, and a version-skewed coordinator would merge a silently
// mis-scored shard into its ranking; the error crosses the wire as a
// terminal ServerError, so it is dropped or surfaced, never retried.
// Floats cross as raw bits, so NaN and ±Inf arrive intact and are
// refused here: a non-finite parameter, statistic or weight would score
// every document NaN.
func (req *EvalRequest) validate() error {
	switch Model(req.Model) {
	case ModelDirichlet, ModelJelinekMercer, ModelBM25:
	default:
		return fmt.Errorf("unknown model %d", req.Model)
	}
	if req.NumDocs < 0 || req.TotalToks < 0 {
		return fmt.Errorf("negative collection totals (num_docs %d, total_toks %d)", req.NumDocs, req.TotalToks)
	}
	for _, p := range [...]struct {
		name string
		v    float64
	}{{"mu", req.Mu}, {"lambda", req.Lambda}, {"k1", req.K1}, {"b", req.B}} {
		if !finite(p.v) {
			return fmt.Errorf("non-finite %s %v", p.name, p.v)
		}
	}
	for i, o := range req.Overrides {
		if !finite(o.DF) || o.DF < 0 || !finite(o.CollProb) || o.CollProb < 0 {
			return fmt.Errorf("leaf %d: df %v and coll_prob %v must be finite and non-negative", i, o.DF, o.CollProb)
		}
	}
	return finiteWeights(req.Query)
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// finiteWeights refuses a tree with a non-finite child weight.
func finiteWeights(n Node) error {
	w, ok := n.(Weighted)
	if !ok {
		return nil
	}
	for _, c := range w.Children {
		if !finite(c.Weight) {
			return fmt.Errorf("non-finite child weight %v", c.Weight)
		}
		if err := finiteWeights(c.Node); err != nil {
			return err
		}
	}
	return nil
}

// ShardService serves one shard of the corpus over RPC: the shard's
// slice of an index.Sharded partition behind the same localPartition
// the in-process ShardedSearcher evaluates — which is what makes the
// distributed scores bit-identical to single-process sharding.
type ShardService struct {
	part      localPartition
	shard     int
	numShards int
}

// NewShardService wraps shard `shard` of a `numShards`-way round-robin
// partition. ix must be the *index.Index produced by
// index.NewSharded(full, numShards).Shard(shard) — the same partition
// function the coordinator's parity baseline uses.
func NewShardService(ix *index.Index, shard, numShards int) *ShardService {
	if shard < 0 || shard >= numShards {
		panic(fmt.Sprintf("search: shard %d out of range of %d", shard, numShards))
	}
	// The shard server holds only its slice, so it remaps local→global
	// with index.Sharded.GlobalDoc's expression rather than the method.
	global := func(d index.DocID) index.DocID {
		return d*index.DocID(numShards) + index.DocID(shard)
	}
	return &ShardService{part: localPartition{ix: ix, global: global}, shard: shard, numShards: numShards}
}

// Register installs the shard methods on srv.
func (svc *ShardService) Register(srv *rpc.Server) {
	srv.Handle(MethodInfo, svc.handleInfo)
	srv.Handle(MethodStats, svc.handleStats)
	srv.Handle(MethodEval, svc.handleEval)
}

func (svc *ShardService) handleInfo(ctx context.Context, body rpc.Body) (any, error) {
	numDocs, totalToks := svc.part.totals()
	return InfoResponse{Shard: svc.shard, NumShards: svc.numShards, NumDocs: numDocs, TotalToks: totalToks}, nil
}

func (svc *ShardService) handleStats(ctx context.Context, body rpc.Body) (any, error) {
	var req StatsRequest
	if err := req.UnmarshalBinary(body); err != nil {
		return nil, err
	}
	g := getGather(1)
	defer g.put()
	pc := &g.calls[0]
	err := svc.part.stats(ctx, []Node{req.Query}, pc, nil)
	// The reply is encoded after the handler returns: it must not alias
	// the pooled call.
	return StatsResponse{Leaves: slices.Clone(pc.leaves)}, err
}

func (svc *ShardService) handleEval(ctx context.Context, body rpc.Body) (any, error) {
	var req EvalRequest
	if err := req.UnmarshalBinary(body); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	if req.K <= 0 {
		return EvalResponse{}, nil
	}
	// Stateless between the phases: the shard flattens again rather
	// than remembering phase A's leaves. The index's positional memo
	// makes the second flatten a set of lookups.
	g := getGather(1)
	defer g.put()
	pc := &g.calls[0]
	if err := svc.part.stats(ctx, []Node{req.Query}, pc, nil); err != nil {
		return nil, err
	}
	if len(pc.leaves) != len(req.Overrides) {
		// The coordinator derived the overrides from this query's flatten
		// on other shards; a count mismatch means this shard was built
		// against a different analyzer and scoring would be silently
		// wrong — same invariant as the coordinator's leaf-count check.
		return nil, fmt.Errorf("shard %d flattened %d leaves, coordinator supplied %d overrides",
			svc.shard, len(pc.leaves), len(req.Overrides))
	}
	if len(pc.leaves) == 0 {
		return EvalResponse{}, nil
	}
	var st *SearchStats
	if req.WantStats {
		st = &SearchStats{}
	}
	if err := svc.part.score(ctx, &req, pc, st); err != nil {
		return nil, err
	}
	res := pc.res[0]
	resp := EvalResponse{Results: make([]WireResult, len(res))}
	for i, r := range res {
		resp.Results[i] = WireResult{Doc: int64(r.Doc), Name: r.Name, Score: r.Score}
	}
	if st != nil {
		resp.Stats = &WireEvalStats{
			CandidatesExamined: st.CandidatesExamined,
			PostingsAdvanced:   st.PostingsAdvanced,
			DocsSkipped:        st.DocsSkipped,
			BoundEvaluations:   st.BoundEvaluations,
			BlocksDecoded:      st.BlocksDecoded,
			BlocksTotal:        st.BlocksTotal,
			HeapPushes:         st.HeapPushes,
			HeapEvictions:      st.HeapEvictions,
		}
	}
	return resp, nil
}
