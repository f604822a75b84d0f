package search

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/index"
	"repro/internal/rpc"
)

// The RPC methods a shard server exposes. See DESIGN.md §5i for the
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
	Shard     int   `json:"shard"`
	NumShards int   `json:"num_shards"`
	NumDocs   int   `json:"num_docs"`
	TotalToks int64 `json:"total_toks"`
}

// StatsRequest asks a shard to flatten a query against its local index
// and report per-leaf collection statistics (phase A of a search).
type StatsRequest struct {
	Query WireNode `json:"query"`
}

// LeafStats are one leaf's shard-local collection statistics.
type LeafStats struct {
	CF int64   `json:"cf"`
	DF float64 `json:"df"`
}

// StatsResponse carries the per-leaf statistics in flatten order. The
// leaf count doubles as the cross-shard consistency check: flatten is
// structure-driven, so every shard must produce the same count.
type StatsResponse struct {
	Leaves []LeafStats `json:"leaves"`
}

// LeafOverride is the global statistics the coordinator pushes down for
// one leaf in phase B: the exact cross-shard sums plus the globally
// floored collection probability.
type LeafOverride struct {
	CF       int64   `json:"cf"`
	DF       float64 `json:"df"`
	CollProb float64 `json:"coll_prob"`
}

// EvalRequest asks a partition to evaluate a query under coordinator-
// supplied global statistics (phase B): override each leaf's statistics
// with Overrides, score with a scorer built from the global
// NumDocs/TotalToks, and return the local top k remapped to global
// DocIDs. It is the one request shape in process and on the wire; only
// a remote partition fills Query (the shard server re-flattens the tree
// — no per-query state survives between the two phases).
type EvalRequest struct {
	Query WireNode `json:"query"`
	K     int      `json:"k"`
	// Model and params pin the scoring function; the shard applies them
	// verbatim (no local defaults beyond ModelParams.withDefaults, which
	// the coordinator has already resolved).
	Model          int     `json:"model"`
	Mu             float64 `json:"mu"`
	Lambda         float64 `json:"lambda"`
	K1             float64 `json:"k1"`
	B              float64 `json:"b"`
	DisablePruning bool    `json:"disable_pruning,omitempty"`
	// Global collection statistics. The shard derives avgDocLen as
	// float64(TotalToks)/float64(NumDocs) — the same expression
	// index.Sharded.AvgDocLen evaluates, so the scorer closure is built
	// over bit-identical inputs.
	NumDocs   int            `json:"num_docs"`
	TotalToks int64          `json:"total_toks"`
	Overrides []LeafOverride `json:"overrides"`
	WantStats bool           `json:"want_stats,omitempty"`
	// forcePrune is Searcher.forcePrune for in-process partitions
	// (test-only); unexported, so it never reaches the wire.
	forcePrune bool
}

// WireResult is one ranked document crossing the wire; Doc is the
// GLOBAL DocID (the shard remaps before answering).
type WireResult struct {
	Doc   int64   `json:"doc"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// WireEvalStats are the shard evaluator's deterministic counters.
type WireEvalStats struct {
	CandidatesExamined int64 `json:"candidates_examined"`
	PostingsAdvanced   int64 `json:"postings_advanced"`
	DocsSkipped        int64 `json:"docs_skipped"`
	BoundEvaluations   int64 `json:"bound_evaluations"`
	BlocksDecoded      int64 `json:"blocks_decoded"`
	BlocksTotal        int64 `json:"blocks_total"`
	HeapPushes         int64 `json:"heap_pushes"`
	HeapEvictions      int64 `json:"heap_evictions"`
}

// EvalResponse carries a shard's top-k slice of the global ranking.
type EvalResponse struct {
	Results []WireResult   `json:"results"`
	Stats   *WireEvalStats `json:"stats,omitempty"`
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
// (Non-finite parameters never get this far: JSON has no encoding for
// them and the decoder refuses an overflowing literal.)
func (req *EvalRequest) validate() error {
	switch Model(req.Model) {
	case ModelDirichlet, ModelJelinekMercer, ModelBM25:
	default:
		return fmt.Errorf("unknown model %d", req.Model)
	}
	if req.NumDocs < 0 || req.TotalToks < 0 {
		return fmt.Errorf("negative collection totals (num_docs %d, total_toks %d)", req.NumDocs, req.TotalToks)
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

func (svc *ShardService) handleInfo(ctx context.Context, body json.RawMessage) (any, error) {
	numDocs, totalToks := svc.part.totals()
	return InfoResponse{Shard: svc.shard, NumShards: svc.numShards, NumDocs: numDocs, TotalToks: totalToks}, nil
}

func (svc *ShardService) handleStats(ctx context.Context, body json.RawMessage) (any, error) {
	var req StatsRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	q, err := DecodeNode(req.Query)
	if err != nil {
		return nil, err
	}
	leaves, _, err := svc.part.stats(ctx, q, nil)
	return StatsResponse{Leaves: leaves}, err
}

func (svc *ShardService) handleEval(ctx context.Context, body json.RawMessage) (any, error) {
	var req EvalRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	q, err := DecodeNode(req.Query)
	if err != nil {
		return nil, err
	}
	if req.K <= 0 {
		return EvalResponse{}, nil
	}
	// Stateless between the phases: the shard flattens again rather
	// than remembering phase A's leaves. The index's positional memo
	// makes the second flatten a set of lookups.
	leaves := svc.part.flatten(q, nil)
	if len(leaves) != len(req.Overrides) {
		// The coordinator derived the overrides from this query's flatten
		// on other shards; a count mismatch means this shard was built
		// against a different analyzer and scoring would be silently
		// wrong — same invariant as the coordinator's leaf-count check.
		return nil, fmt.Errorf("shard %d flattened %d leaves, coordinator supplied %d overrides",
			svc.shard, len(leaves), len(req.Overrides))
	}
	if len(leaves) == 0 {
		return EvalResponse{}, nil
	}
	var st *SearchStats
	if req.WantStats {
		st = &SearchStats{}
	}
	res, err := svc.part.score(ctx, leaves, &req, st)
	if err != nil {
		return nil, err
	}
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
