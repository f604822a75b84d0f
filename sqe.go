// Package sqe is the public API of this reproduction of "Structural
// Query Expansion via motifs from Wikipedia" (Guisado-Gámez, Prat-Pérez,
// Larriba-Pey; ExploreDB'17). It exposes the complete pipeline:
//
//	KB graph  ──►  motif search  ──►  expanded query  ──►  retrieval
//
// The heavy lifting lives in the internal packages (see DESIGN.md for
// the system inventory); this package re-exports the types a downstream
// user needs and wires them into an Engine with the paper's defaults:
// triangular + square motifs, |m_a|-weighted expansion features, a
// Dirichlet-smoothed query-likelihood retrieval model and the SQE_C
// result combination.
//
// Quickstart:
//
//	env, err := sqe.GenerateDemo(sqe.DemoSmall) // synthetic Wikipedia + corpus
//	if err != nil {
//		log.Fatal(err)
//	}
//	eng := env.Engine
//	resp, err := eng.Do(ctx, sqe.SearchRequest{
//		Query:        "cable cars",
//		EntityTitles: []string{"cable car"},
//		K:            10,
//	})
//	if err != nil {
//		log.Fatal(err)
//	}
//	for _, r := range resp.Results {
//		fmt.Println(r.Name, r.Score)
//	}
//
// An Engine is configured at construction with functional options and is
// immutable and safe for concurrent use afterwards:
//
//	eng := sqe.NewEngine(graph, ix,
//		sqe.WithLinker(dict),
//		sqe.WithMu(500),
//		sqe.WithExpansionCache(4096),
//		sqe.WithShards(4),
//	)
//
// Engine.Do is the retrieval entry point: one context-first call whose
// SearchRequest selects the configuration (SQE_C by default; an explicit
// MotifSet, the QL baseline, or PRF on top of either) and whose
// SearchResponse carries the ranking, the expansion used, and optional
// per-stage instrumentation. Expansion without retrieval is
// Expand/ExpandContext.
//
// WithShards(n) partitions the index into n round-robin shards whose
// retrievals evaluate in parallel and merge into a final top-k —
// bit-identical to the unsharded engine.
package sqe

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/entitylink"
	"repro/internal/index"
	"repro/internal/kb"
	"repro/internal/motif"
	"repro/internal/prf"
	"repro/internal/search"
)

// Re-exported substrate types. The KB graph and the inverted index are
// constructed with their own builders (GraphBuilder, IndexBuilder below)
// or by the demo generator.
type (
	// Graph is the knowledge-base graph (articles, categories, links).
	Graph = kb.Graph
	// NodeID identifies a node in a Graph.
	NodeID = kb.NodeID
	// Index is the positional inverted index of a document collection.
	Index = index.Index
	// Result is one ranked document.
	Result = search.Result
	// MotifSet selects which structural motifs drive the expansion.
	MotifSet = motif.Set
	// GraphBuilder constructs immutable Graphs.
	GraphBuilder = kb.Builder
	// PRFConfig parameterises pseudo-relevance feedback.
	PRFConfig = prf.Config
	// ShardSearchStats is one shard's slice of a retrieval's counters
	// (PipelineStats.Search.Shards; an unsharded engine's index is its
	// one shard).
	ShardSearchStats = search.ShardStats
	// PipelineStats aggregates per-stage timings (entity linking, motif
	// search, query build, retrieval) and evaluator counters.
	PipelineStats = core.PipelineStats
	// CacheStats are the expansion cache's hit/miss/eviction counters
	// (see WithExpansionCache).
	CacheStats = core.CacheStats
)

// Motif configurations, named after the paper's runs.
const (
	// MotifT uses the triangular motif only (best for small tops).
	MotifT = motif.SetT
	// MotifS uses the square motif only (best for large tops).
	MotifS = motif.SetS
	// MotifTS combines both motifs (best in between).
	MotifTS = motif.SetTS
)

// NewGraphBuilder returns a builder for a KB graph, with a capacity hint
// for the expected number of nodes.
func NewGraphBuilder(nodeHint int) *GraphBuilder { return kb.NewBuilder(nodeHint) }

// NewIndexBuilder returns a builder for the document index using the
// standard analyzer (stopwords + Porter stemming) — the same pipeline
// queries go through.
func NewIndexBuilder() *index.Builder { return index.NewBuilder(analysis.Standard()) }

// Feature is one expansion feature of an expanded query.
type Feature struct {
	// Article is the expansion node.
	Article NodeID
	// Title is the article's title; it enters the query as an exact
	// phrase.
	Title string
	// Weight is |m_a|, the number of motif instances the article
	// appeared in.
	Weight float64
}

// Expansion is the result of running SQE's query-graph builder.
type Expansion struct {
	// QueryNodes are the resolved query entities.
	QueryNodes []NodeID
	// QueryNodeTitles are their titles.
	QueryNodeTitles []string
	// Features are the expansion features, sorted by descending weight.
	Features []Feature
}

// Engine bundles a KB graph and a document index into the full SQE
// retrieval pipeline.
//
// An Engine is configured through the Options passed to NewEngine and is
// immutable afterwards: any number of goroutines may call Do, Expand
// and ParseQuery concurrently.
type Engine struct {
	graph *Graph
	// ix is the document index: the analyzer's, PRF's doc vectors' and
	// Index()'s source. On a live engine it is an empty placeholder.
	ix       *Index
	expander *core.Expander
	linker   *entitylink.Linker
	// cache memoises motif expansions across requests; nil when caching
	// is off (the default outside serving).
	cache *core.ExpansionCache
	// workers sizes sem (see WithSQECWorkers); <= 1 leaves it nil.
	workers int
	// sem is the engine-wide worker pool partition fan-outs try-acquire
	// (search.ShardConfig.Sem); nil runs every partition call on the
	// caller's goroutine.
	sem chan struct{}
	// shards is the shard count requested via WithShards (0/1 =
	// unsharded).
	shards int
	// cfg is the retrieval configuration the options stage; NewEngine
	// applies it to dist (with Sem set to the worker pool).
	cfg search.ShardConfig
	// dist is the retrieval path every request's trees go through in one
	// Evaluate — PRF's feedback pass included: a searcher over ix (a
	// coordinator over one partition, the whole index), the in-process
	// ShardedSearcher (WithShards), an RPC coordinator over shard-server
	// processes (WithDistributedSearcher) or a snapshot-pinning segmented
	// searcher (NewLiveEngine); all return results bit-identical to a
	// monolithic searcher over the same documents, with global DocIDs —
	// see internal/search.Distributed.
	dist search.Distributed
	// degrade, when non-nil, enables graceful degradation in Do (see
	// WithDegradation and DegradationPolicy); nil keeps the strict
	// all-or-nothing behaviour.
	degrade *DegradationPolicy
	// live, when non-nil, is the segmented index a live engine serves
	// and mutates (see NewLiveEngine); retrieval then routes through
	// dist (a snapshot-pinning segmented searcher) and ix is an empty
	// placeholder.
	live *LiveIndex
}

// Option configures an Engine at construction (see NewEngine).
type Option func(*Engine)

// WithLinker installs an entity-linking dictionary so that Do and
// Expand can resolve entities from free text when no explicit entity
// titles are given.
func WithLinker(dict *entitylink.Dictionary) Option {
	return func(e *Engine) { e.linker = entitylink.NewLinker(dict) }
}

// WithMu sets the Dirichlet smoothing pseudo-count μ of the retrieval
// model, the paper's Indri-style Dirichlet-smoothed query likelihood; a
// non-positive mu keeps the default, 2500.
func WithMu(mu float64) Option {
	return func(e *Engine) { e.cfg.Mu = mu }
}

// WithPruning toggles MaxScore-style score-safe dynamic pruning in the
// document-at-a-time top-k loop (default on). With pruning, candidates
// that provably cannot enter the current top-k — judged against
// per-leaf score upper bounds derived from index metadata at
// query-compile time — are skipped without being scored; rankings and
// scores stay bit-identical to exhaustive scoring for every shard count
// (TestDifferential's rows enforce this). WithPruning(false) is the
// escape hatch for debugging and the exhaustive reference the bench/
// oracle compares against.
func WithPruning(on bool) Option {
	return func(e *Engine) { e.cfg.DisablePruning = !on }
}

// WithExpansionCache bounds a sharded LRU cache over motif expansions
// to the given number of entries, keyed by the sorted query nodes, the
// motif set and the complete expander/matcher configuration (see
// core.(*Expander).ExpansionKey). Repeated queries — including the
// three runs of a repeated SQE_C call — skip motif search entirely;
// hits are bit-identical to the expansion that populated them.
// entries <= 0 disables caching.
func WithExpansionCache(entries int) Option {
	return func(e *Engine) {
		if entries > 0 {
			e.cache = core.NewExpansionCache(entries)
		} else {
			e.cache = nil
		}
	}
}

// WithSQECWorkers sizes the engine-wide worker pool that partition
// fan-outs (WithShards, WithDistributedSearcher, a live engine's
// segments) draw extra goroutines from; n <= 1 evaluates every partition
// on the caller's goroutine, and the default is GOMAXPROCS. Results are
// byte-identical whatever n is. The name is historical: SQE_C's three
// runs no longer take workers — every engine evaluates them in one
// pass. The option stays only because the benchmark harness binds it;
// ROADMAP item 7 deletes it.
func WithSQECWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithShards partitions the document index across n round-robin shards
// at engine construction and evaluates every retrieval as a parallel
// per-shard document-at-a-time scan with a final top-k merge. Each query
// leaf's collection statistics are replaced by their exact cross-shard
// sums before scoring, so rankings and scores are bit-identical to the
// unsharded engine (TestDifferential's
// shards-N rows enforce this). n is clamped to the document
// count; n <= 1 keeps the whole index as the one shard. Shard
// evaluations draw extra goroutines from the engine-wide worker pool
// (its size is WithSQECWorkers' only remaining effect) and run inline
// when it is saturated. Each shard evaluates SQE_C's three runs in one
// pass, as an unsharded engine does (DESIGN.md §9.2).
func WithShards(n int) Option {
	return func(e *Engine) { e.shards = n }
}

// DistributedSearcher is the engine-facing contract of sharded
// retrieval: the in-process sharded searcher and the RPC coordinator
// over shard-server processes both satisfy it, and both are
// bit-identical to the unsharded engine.
type DistributedSearcher = search.Distributed

// WithDistributedSearcher installs a pre-built distributed retrieval
// backend — typically an RPC coordinator over shard-server processes
// (search.NewRemoteSharded; see cmd/sqe-serve's coordinator mode). The
// engine mirrors its retrieval configuration (μ, pruning, worker
// pool) onto the backend at construction, exactly as it
// does for WithShards, so distributed scores stay bit-identical to the
// single-process engine over the same corpus and shard count.
//
// The shard servers must hold the same corpus partitioned with the same
// round-robin function (index.NewSharded) and the same analyzer — the
// coordinator verifies shard identity at handshake and leaf-count
// agreement per query, and cmd/sqe-serve's TestMultiProcessServing
// enforces the full bit-identity over real processes. Takes precedence
// over WithShards.
func WithDistributedSearcher(d DistributedSearcher) Option {
	return func(e *Engine) { e.dist = d }
}

// NewEngine builds an Engine over a KB graph and a document index,
// configured by the given options. The returned Engine is safe for
// concurrent use.
func NewEngine(g *Graph, ix *Index, opts ...Option) *Engine {
	e := &Engine{
		graph:    g,
		ix:       ix,
		expander: core.NewExpander(g, ix.Analyzer()),
		workers:  runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.workers > 1 {
		e.sem = make(chan struct{}, e.workers)
	}
	if e.dist == nil && e.shards > 1 {
		if sh := index.NewSharded(ix, e.shards); sh.NumShards() > 1 {
			e.dist = search.NewShardedSearcher(sh)
		}
	}
	if e.dist == nil {
		e.dist = search.NewSearcher(ix)
	}
	e.cfg.Sem = e.sem
	e.dist.Configure(e.cfg)
	return e
}

// Graph returns the engine's KB graph.
func (e *Engine) Graph() *Graph { return e.graph }

// Index returns the engine's document index.
func (e *Engine) Index() *Index { return e.ix }

// ExpansionCacheStats reports the expansion cache's counters; ok is
// false when the engine was built without WithExpansionCache.
func (e *Engine) ExpansionCacheStats() (stats CacheStats, ok bool) {
	if e.cache == nil {
		return CacheStats{}, false
	}
	return e.cache.Stats(), true
}

// ParseQuery parses an Indri-like structured query (#weight/#combine/
// #1/#uwN/quotes) with the engine's analyzer and retrieves the top k
// under ctx, strictly: a parsed query bypasses Do's pipeline and its
// degradation.
func (e *Engine) ParseQuery(ctx context.Context, query string, k int) ([]Result, error) {
	node, err := search.Parse(e.ix.Analyzer(), query)
	if err != nil {
		return nil, err
	}
	lists, _, err := e.retrieve(ctx, []search.Node{node}, k, false, nil, nil)
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// resolveEntities maps entity titles to query nodes; unknown titles are
// reported, not silently dropped. With no titles and a configured
// linker, entities are linked automatically from the query text.
func (e *Engine) resolveEntities(query string, entityTitles []string) ([]NodeID, error) {
	if len(entityTitles) == 0 {
		if e.linker == nil {
			return nil, nil
		}
		return e.linker.LinkArticles(query), nil
	}
	nodes := make([]NodeID, 0, len(entityTitles))
	for _, t := range entityTitles {
		id := e.graph.ByTitle(t)
		if id == kb.Invalid {
			return nil, fmt.Errorf("sqe: unknown entity title %q", t)
		}
		if e.graph.Kind(id) != kb.KindArticle {
			return nil, fmt.Errorf("sqe: entity %q is a category, not an article", t)
		}
		nodes = append(nodes, id)
	}
	return nodes, nil
}

// Expand runs the query-graph builder from the given entities (titles
// resolved against the graph; empty means "link automatically") and
// returns the expansion features.
func (e *Engine) Expand(query string, entityTitles []string, set MotifSet) (*Expansion, error) {
	return e.ExpandContext(context.Background(), query, entityTitles, set)
}

// ExpandContext is Expand under a context: the check happens before the
// motif search starts (motif search itself is not interruptible — it is
// bounded by the query's neighbourhood, not the corpus). It runs Do's
// expansion step, under the engine's retry budget when degradation is
// on; with no unexpanded answer to fall back to, a failed expansion is
// returned as the error.
func (e *Engine) ExpandContext(ctx context.Context, query string, entityTitles []string, set MotifSet) (*Expansion, error) {
	nodes, err := e.linkEntities(ctx, query, entityTitles, nil)
	if err != nil {
		return nil, err
	}
	var deg *Degradation
	if e.degrade != nil {
		deg = &Degradation{}
	}
	qg, err := e.expand(ctx, nodes, set, nil, deg)
	if err != nil {
		return nil, err
	}
	return e.expansionOf(qg), nil
}
