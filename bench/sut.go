package main

// sut.go is the only file of the harness that names a symbol of the
// system under test. Everything else talks to the system through the
// /v1/* routes or through the bench-local types declared here, so a
// refactor of the repo sees its whole coupling to the benchmark in one
// place. It deliberately uses none of the surface ROADMAP marks for
// deletion (compat.go wrappers, Set* shims, the legacy scorer, the
// unversioned HTTP aliases, FormatV1 writing).

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	sqe "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/entitylink"
	"repro/internal/index"
	"repro/internal/kb"
	"repro/internal/motif"
	"repro/internal/rpc"
	"repro/internal/search"
	"repro/internal/serve"
	"repro/internal/wikigen"
)

// stageTimings is the engine's per-stage wall-clock breakdown.
type stageTimings = core.StageTimings

// Bench-local mirrors of the data the harness moves around.
type (
	// benchQuery is one judged CHiC query with its manual entity titles.
	benchQuery struct {
		ID       string   `json:"id"`
		Text     string   `json:"text"`
		Entities []string `json:"entities"`
	}
	// document is one CHiC document exactly as it was indexed.
	document struct {
		Name string `json:"name"`
		Text string `json:"text"`
	}
	// ranked is one (name, score) pair of a ranking.
	ranked struct {
		Name  string  `json:"name"`
		Score float64 `json:"score"`
	}
	// weighted is one expansion feature.
	weighted struct {
		Title  string  `json:"title"`
		Weight float64 `json:"weight"`
	}
	// linkerRow is one dictionary entry, replayed in order at boot.
	linkerRow struct {
		Title      bool    `json:"title,omitempty"` // AddTitle, else AddSurface
		Surface    string  `json:"s"`
		Article    int32   `json:"a"`
		Commonness float64 `json:"c"`
	}
)

// Serving defaults of cmd/sqe-serve, which the benchmark reproduces.
const (
	expansionCacheEntries = 4096
	seedDocs              = 40000 // documents compacted into live-mixed's first segment
	coordinatorShards     = 2
)

// File names inside the prepared data directory.
const (
	fileKB      = "kb.bin"
	fileIndex   = "chic.v2"
	fileLinker  = "linker.json"
	fileQueries = "queries.json"
	fileOracle  = "oracle.json"
	fileDocs    = "docs.jsonl"
	fileMeta    = "meta.json"
	dirSeedSegs = "segments-seed"
)

// servingOptions are sqe-serve's engine defaults: expansion cache 4096,
// degradation on, pruning and SQE_C workers left at their defaults,
// Dirichlet scoring, the dictionary linker installed.
func servingOptions(dict *entitylink.Dictionary) []sqe.Option {
	return []sqe.Option{
		sqe.WithLinker(dict),
		sqe.WithExpansionCache(expansionCacheEntries),
		sqe.WithDegradation(sqe.DefaultDegradation()),
	}
}

// ---------------------------------------------------------------------
// Prepare: generate the suite once and write the on-disk artifacts.

// sutPrepare generates the default-scale world and the CHiC collection
// (the same deterministic data experiments.NewSuite builds, minus the
// Image CLEF instance nothing here serves, plus the raw document stream
// live-mixed ingests) and writes every artifact a cold boot reads.
func sutPrepare(dir string) (prepMeta, error) {
	var m prepMeta
	world, err := wikigen.Generate(wikigen.DefaultConfig())
	if err != nil {
		return m, err
	}
	var docs []document
	ins, err := dataset.BuildWithSink(world, dataset.CHiCProfile(dataset.ScaleDefault),
		func(name, text string) { docs = append(docs, document{name, text}) })
	if err != nil {
		return m, err
	}
	ix := ins[0].Index // CHiC 2012 and 2013 share one collection
	var queries []benchQuery
	for _, in := range ins {
		for _, q := range in.Queries {
			bq := benchQuery{ID: q.ID, Text: q.Text}
			for _, e := range q.Entities {
				bq.Entities = append(bq.Entities, world.Graph.Title(e))
			}
			queries = append(queries, bq)
		}
	}

	rows := linkerRows(world)
	dict := dictFromRows(rows)
	// The rows re-derive dataset.BuildLinker's dictionary (the engine only
	// accepts a Dictionary, BuildLinker only returns a Linker); make sure
	// the two link every benchmark query identically.
	ref := dataset.BuildLinker(world, dataset.DefaultLinkerOptions())
	mine := entitylink.NewLinker(dict)
	for _, q := range queries {
		if a, b := ref.LinkArticles(q.Text), mine.LinkArticles(q.Text); !equalNodes(a, b) {
			return m, fmt.Errorf("linker rows diverge from dataset.BuildLinker on %s: %v vs %v", q.ID, b, a)
		}
	}

	f, err := os.Create(filepath.Join(dir, fileKB))
	if err != nil {
		return m, err
	}
	if err := kb.Encode(f, world.Graph); err != nil {
		f.Close()
		return m, err
	}
	if err := f.Close(); err != nil {
		return m, err
	}
	if err := index.WriteFile(filepath.Join(dir, fileIndex), ix, index.FormatV2); err != nil {
		return m, err
	}
	if err := writeJSON(filepath.Join(dir, fileLinker), rows); err != nil {
		return m, err
	}
	if err := writeJSON(filepath.Join(dir, fileQueries), queries); err != nil {
		return m, err
	}
	if err := writeDocs(filepath.Join(dir, fileDocs), docs); err != nil {
		return m, err
	}

	// The oracle: in-memory, unsharded, unpruned.
	oracleEng := sqe.NewEngine(world.Graph, ix, sqe.WithLinker(dict), sqe.WithPruning(false))
	or := oracleTable{Manual: map[string][]ranked{}, Auto: map[string][]ranked{}, Baseline: map[string][]ranked{}}
	for _, q := range queries {
		for kind, into := range map[string]map[string][]ranked{kindManual: or.Manual, kindAuto: or.Auto, kindBaseline: or.Baseline} {
			res, err := engineSearch(oracleEng, kind, q, resultDepth)
			if err != nil {
				return m, fmt.Errorf("oracle %s %s: %w", kind, q.ID, err)
			}
			into[q.ID] = res
		}
	}
	if err := writeJSON(filepath.Join(dir, fileOracle), or); err != nil {
		return m, err
	}

	// live-mixed's starting state: the first seedDocs documents compacted
	// into one segment, default flush threshold.
	segDir := filepath.Join(dir, dirSeedSegs)
	live, err := sqe.OpenLiveIndex(segDir, 0)
	if err != nil {
		return m, err
	}
	seedEng := sqe.NewLiveEngine(world.Graph, live)
	for _, d := range docs[:seedDocs] {
		if err := seedEng.Ingest(d.Name, d.Text); err != nil {
			live.Close()
			return m, err
		}
	}
	if err := seedEng.Flush(); err != nil {
		live.Close()
		return m, err
	}
	if err := seedEng.CompactSegments(); err != nil {
		live.Close()
		return m, err
	}
	if err := live.Close(); err != nil {
		return m, err
	}

	fi, err := os.Stat(filepath.Join(dir, fileIndex))
	if err != nil {
		return m, err
	}
	m = prepMeta{
		Docs:       len(docs),
		Queries:    len(queries),
		Articles:   world.Graph.NumArticles(),
		BlockSize:  ix.BlockSize(),
		IndexBytes: fi.Size(),
	}
	return m, nil
}

// linkerRows lists the dictionary entries of dataset.BuildLinker with
// its default options, in insertion order.
func linkerRows(world *wikigen.World) []linkerRow {
	opts := dataset.DefaultLinkerOptions()
	rng := rand.New(rand.NewSource(opts.Seed))
	var rows []linkerRow
	for ti := range world.Topics {
		t := &world.Topics[ti]
		for i, a := range t.Articles {
			rows = append(rows, linkerRow{Title: true, Surface: world.Graph.Title(a), Article: int32(a), Commonness: 1 / float64(i+1)})
		}
		for _, alias := range t.AliasTerms {
			rows = append(rows, linkerRow{Surface: alias, Article: int32(t.Entity()), Commonness: 0.6})
		}
	}
	for ti := range world.Topics {
		if rng.Float64() >= opts.AliasAmbiguity {
			continue
		}
		other := rng.Intn(len(world.Topics))
		if other == ti {
			continue
		}
		rows = append(rows, linkerRow{Surface: world.Topics[ti].AliasTerms[0], Article: int32(world.Topics[other].Entity()), Commonness: 0.8})
	}
	return rows
}

func dictFromRows(rows []linkerRow) *entitylink.Dictionary {
	dict := entitylink.NewDictionary(analysis.Standard())
	for _, r := range rows {
		if r.Title {
			dict.AddTitle(r.Surface, kb.NodeID(r.Article), r.Commonness)
		} else {
			dict.AddSurface(r.Surface, kb.NodeID(r.Article), r.Commonness)
		}
	}
	return dict
}

func equalNodes(a, b []kb.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// searchRequest is the engine request of one benchmark request.
func searchRequest(kind string, q benchQuery, k int) sqe.SearchRequest {
	req := sqe.SearchRequest{Query: q.Text, K: k}
	switch kind {
	case kindManual:
		req.EntityTitles = q.Entities
	case kindBaseline:
		req.Baseline = true
	}
	return req
}

// engineSearch runs one benchmark request through Engine.Do.
func engineSearch(e *sqe.Engine, kind string, q benchQuery, k int) ([]ranked, error) {
	resp, err := e.Do(context.Background(), searchRequest(kind, q, k))
	if err != nil {
		return nil, err
	}
	return toRanked(resp.Results), nil
}

func toRanked(rs []search.Result) []ranked {
	out := make([]ranked, len(rs))
	for i, r := range rs {
		out[i] = ranked{r.Name, r.Score}
	}
	return out
}

// ---------------------------------------------------------------------
// Oracles the load generator consults while it runs.

// expandOracle answers /v1/expand requests from an engine with no
// expansion cache, so a wrong or stale cache entry on the server shows.
type expandOracle struct{ eng *sqe.Engine }

func newExpandOracle(dataDir string) (*expandOracle, []string, error) {
	g, err := loadGraph(filepath.Join(dataDir, fileKB))
	if err != nil {
		return nil, nil, err
	}
	var titles []string
	g.Articles(func(id kb.NodeID) bool {
		titles = append(titles, g.Title(id))
		return true
	})
	empty := index.NewBuilder(analysis.Standard()).Build()
	return &expandOracle{sqe.NewEngine(g, empty)}, titles, nil
}

func (o *expandOracle) expand(query string, entities []string, set string) (nodes []string, features []weighted, err error) {
	exp, err := o.eng.Expand(query, entities, motifSet(set))
	if err != nil {
		return nil, nil, err
	}
	for _, f := range exp.Features {
		features = append(features, weighted{f.Title, f.Weight})
	}
	return exp.QueryNodeTitles, features, nil
}

// setName is the wire name of a motif set.
func setName(s motif.Set) string {
	switch s {
	case motif.SetT:
		return "T"
	case motif.SetS:
		return "S"
	}
	return "TS"
}

func motifSet(s string) sqe.MotifSet {
	switch s {
	case "T":
		return sqe.MotifT
	case "S":
		return sqe.MotifS
	}
	return sqe.MotifTS
}

// monolithicRankings rebuilds one in-memory index over docs and ranks
// every query's manual-entity SQE_C request on it, unpruned: what a live
// index holding exactly these documents must return.
func monolithicRankings(dataDir string, docs []document, queries []benchQuery) (map[string][]ranked, error) {
	g, err := loadGraph(filepath.Join(dataDir, fileKB))
	if err != nil {
		return nil, err
	}
	b := index.NewBuilder(analysis.Standard())
	for _, d := range docs {
		b.Add(d.Name, d.Text)
	}
	eng := sqe.NewEngine(g, b.Build(), sqe.WithPruning(false))
	out := make(map[string][]ranked, len(queries))
	for _, q := range queries {
		res, err := engineSearch(eng, kindManual, q, resultDepth)
		if err != nil {
			return nil, err
		}
		out[q.ID] = res
	}
	return out, nil
}

func loadGraph(path string) (*kb.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return kb.Decode(bufio.NewReader(f))
}

// ---------------------------------------------------------------------
// Boot: on-disk artifacts → a serving shape.

// shape is one booted serving configuration.
type shape struct {
	graph    *kb.Graph
	dict     *entitylink.Dictionary
	ix       *index.Index // the mmap'd v2 CHiC index; nil on live-mixed
	ixPath   string
	live     *sqe.LiveIndex // live-mixed only
	segDir   string
	sharded  *index.Sharded        // coordinator-s2 only
	remote   *search.RemoteSharded // coordinator-s2 only
	clients  []*rpc.Client
	rpcBytes atomic.Int64 // bytes through the shard listeners, both directions
	engine   *sqe.Engine
	closers  []func()
}

func (s *shape) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// bootShape cold-boots workload's serving shape from dataDir (and, for
// live-mixed, the segment directory segDir), with a span around each
// boot step. sequential builds the engine the traced replay is compared
// with: SQE_C's three runs one after the other, as the replay makes them,
// so the engine's stage timings are not inflated by its own runs
// competing for the cores.
func bootShape(workload, dataDir, segDir string, sequential bool, tr *tracer) (*shape, error) {
	s := &shape{segDir: segDir}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	sp := tr.begin("kb.load", -1, -1)
	g, err := loadGraph(filepath.Join(dataDir, fileKB))
	if err != nil {
		return nil, err
	}
	var rows []linkerRow
	if err := readJSON(filepath.Join(dataDir, fileLinker), &rows); err != nil {
		return nil, err
	}
	s.graph, s.dict = g, dictFromRows(rows)
	tr.end(sp)

	sp = tr.begin("index.open", -1, -1)
	if workload == wlLiveMixed {
		live, err := sqe.OpenLiveIndex(segDir, 0)
		if err != nil {
			return nil, err
		}
		s.live = live
		s.closers = append(s.closers, func() { _ = live.Close() })
	} else {
		s.ixPath = filepath.Join(dataDir, fileIndex)
		ix, err := index.Open(s.ixPath)
		if err != nil {
			return nil, err
		}
		s.ix = ix
		s.closers = append(s.closers, func() { _ = ix.Close() })
	}
	tr.end(sp)

	sp = tr.begin("sqe.new_engine", -1, -1)
	opts := servingOptions(s.dict)
	if sequential {
		opts = append(opts, sqe.WithSQECWorkers(1))
	}
	switch workload {
	case wlLiveMixed:
		s.engine = sqe.NewLiveEngine(g, s.live, opts...)
	case wlCoordinator:
		if err := s.bootShards(); err != nil {
			return nil, err
		}
		s.engine = sqe.NewEngine(g, s.ix, append(opts, sqe.WithDistributedSearcher(s.remote))...)
	default:
		s.engine = sqe.NewEngine(g, s.ix, opts...)
	}
	tr.end(sp)
	ok = true
	return s, nil
}

// bootShards partitions the index and puts each shard behind the real
// RPC wire protocol on a loopback listener.
func (s *shape) bootShards() error {
	s.sharded = index.NewSharded(s.ix, coordinatorShards)
	n := s.sharded.NumShards()
	groups := make([]*rpc.Group, n)
	for i := range groups {
		srv := rpc.NewServer()
		search.NewShardService(s.sharded.Shard(i), i, n).Register(srv)
		srv.Handle(echoMethod, func(context.Context, json.RawMessage) (any, error) { return struct{}{}, nil })
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go func() { _ = srv.Serve(countingListener{ln, &s.rpcBytes}) }()
		s.closers = append(s.closers, srv.Close)
		c := rpc.NewClient(ln.Addr().String(), rpc.ClientOptions{MaxRetries: -1})
		s.closers = append(s.closers, c.Close)
		s.clients = append(s.clients, c)
		groups[i] = rpc.NewGroup([]*rpc.Client{c}, rpc.GroupOptions{})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	remote, err := search.NewRemoteSharded(ctx, groups)
	if err != nil {
		return err
	}
	s.remote = remote
	return nil
}

const echoMethod = "bench.echo"

// handler is the HTTP tier over the shape's engine, with sqe-serve's
// defaults.
func (s *shape) handler() http.Handler {
	return serve.New(serve.Config{Engine: s.engine})
}

// rpcCalls is the number of RPCs the coordinator has issued so far.
func (s *shape) rpcCalls() int64 {
	var n int64
	for _, c := range s.clients {
		n += c.Stats().Calls
	}
	return n
}

// countingListener counts the bytes of every accepted connection.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// ---------------------------------------------------------------------
// Replay: the public calls Engine.Do composes, one span around each.

// replayCounts are the counts taken at the span boundaries.
type replayCounts struct {
	Retrievals   int
	Search       search.SearchStats
	LinkCalls    int
	Mentions     int
	Expansions   int // graph lookups (hit or miss)
	MotifCalls   int
	Matches      int
	Features     int
	SegmentsSeen int     // Σ segments pinned per retrieval
	Overfetch    float64 // Σ per retrieval of Σ_i(k+|tombs_i|) / (segments·k)
	SlowestShard float64 // Σ per retrieval of max shard elapsed / retrieval elapsed
	OutsideEval  time.Duration
	ShardedEvals int // retrievals with per-shard timings
	Stages       core.StageTimings
	// Paired retrievals for rpc.share_of_retrieval.
	PairedRemote, PairedLocal time.Duration
}

// replayer runs requests through the layers single-threaded.
type replayer struct {
	s        *shape
	tr       *tracer
	expander *core.Expander
	linker   *entitylink.Linker
	cache    *core.ExpansionCache
	local    *search.ShardedSearcher // in-process twin of the coordinator's partition
	c        replayCounts
	lastNode search.Node // most recent expanded query, for the depth and alloc probes
	retrieve func(ctx context.Context, q search.Node, k int) ([]search.Result, search.SearchStats, error)
}

func newReplayer(s *shape, tr *tracer) *replayer {
	r := &replayer{
		s:        s,
		tr:       tr,
		expander: core.NewExpander(s.graph, analysis.Standard()),
		linker:   entitylink.NewLinker(s.dict),
		cache:    core.NewExpansionCache(expansionCacheEntries),
	}
	switch {
	case s.live != nil:
		r.retrieve = search.NewSegmentedSearcher(s.live).SearchWithStatsContext
	case s.remote != nil:
		r.retrieve = s.remote.SearchWithStatsContext
		r.local = search.NewShardedSearcher(s.sharded)
	default:
		r.retrieve = search.NewSearcher(s.ix).SearchWithStatsContext
	}
	return r
}

var sqecSets = [3]motif.Set{motif.SetT, motif.SetTS, motif.SetS}

// search replays one /v1/search or /v1/baseline request.
func (r *replayer) search(id int, kind string, q benchQuery, k int) ([]ranked, error) {
	root := r.tr.begin("request."+kind, id, -1)
	defer r.tr.end(root)
	if kind == kindBaseline {
		node := r.queryBuild(id, root, func() search.Node { return r.expander.QLQuery(q.Text) })
		res, err := r.retrieval(id, root, node, k)
		return toRanked(res), err
	}
	var titles []string
	if kind == kindManual {
		titles = q.Entities
	}
	var runs [3][]search.Result
	for i, set := range sqecSets {
		nodes, err := r.resolve(id, root, q.Text, titles)
		if err != nil {
			return nil, err
		}
		qg := r.graph(id, root, nodes, set)
		node := r.queryBuild(id, root, func() search.Node { return r.expander.BuildQuery(q.Text, qg) })
		r.lastNode = node
		if runs[i], err = r.retrieval(id, root, node, k); err != nil {
			return nil, err
		}
	}
	sp := r.tr.begin("core.splice", id, root)
	out := core.SpliceResultsC(k, runs[0], runs[1], runs[2])
	r.tr.end(sp)
	return toRanked(out), nil
}

// queryBuild times the construction of one structured query.
func (r *replayer) queryBuild(id, parent int, build func() search.Node) search.Node {
	sp := r.tr.begin("core.query_build", id, parent)
	start := time.Now()
	node := build()
	r.c.Stages.QueryBuild += time.Since(start)
	r.tr.end(sp)
	return node
}

// expand replays one /v1/expand request.
func (r *replayer) expand(id int, query string, titles []string, set string) ([]string, []weighted, error) {
	root := r.tr.begin("request.expand", id, -1)
	defer r.tr.end(root)
	nodes, err := r.resolve(id, root, query, titles)
	if err != nil {
		return nil, nil, err
	}
	qg := r.graph(id, root, nodes, motifSet(set))
	sp := r.tr.begin("core.describe", id, root)
	names := make([]string, len(qg.QueryNodes))
	for i, n := range qg.QueryNodes {
		names[i] = r.s.graph.Title(n)
	}
	features := make([]weighted, len(qg.Features))
	for i, f := range qg.Features {
		features[i] = weighted{r.s.graph.Title(f.Article), f.Weight}
	}
	r.tr.end(sp)
	return names, features, nil
}

// resolve maps entity titles to nodes, or links them from the text.
func (r *replayer) resolve(id, parent int, text string, titles []string) ([]kb.NodeID, error) {
	start := time.Now()
	defer func() { r.c.Stages.EntityLink += time.Since(start) }()
	if len(titles) == 0 {
		sp := r.tr.begin("entitylink.link", id, parent)
		nodes := r.linker.LinkArticles(text)
		r.tr.end(sp)
		r.c.LinkCalls++
		r.c.Mentions += len(nodes)
		return nodes, nil
	}
	sp := r.tr.begin("kb.by_title", id, parent)
	defer r.tr.end(sp)
	nodes := make([]kb.NodeID, 0, len(titles))
	for _, t := range titles {
		n := r.s.graph.ByTitle(t)
		if n == kb.Invalid || r.s.graph.Kind(n) != kb.KindArticle {
			return nil, fmt.Errorf("unknown entity title %q", t)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// graph is the expansion lookup chain: LRU hit, else motif search plus
// the fold into features. A hit binds the caller's own node order to the
// cached features, as the engine's cache does.
func (r *replayer) graph(id, parent int, nodes []kb.NodeID, set motif.Set) core.QueryGraph {
	start := time.Now()
	defer func() { r.c.Stages.MotifSearch += time.Since(start) }()
	r.c.Expansions++
	sp := r.tr.begin("core.cache_hit", id, parent)
	key := r.expander.ExpansionKey(nodes, set)
	if qg, ok := r.cache.Get(key); ok {
		qg = core.QueryGraph{QueryNodes: append([]kb.NodeID(nil), nodes...), Features: qg.Features}
		r.tr.end(sp)
		r.c.Features += len(qg.Features)
		return qg
	}
	r.tr.rename(sp, "core.graph_cold")
	msp := r.tr.begin("motif.expand."+setName(set), id, sp)
	matches := r.expander.Matcher().Expand(nodes, set)
	r.tr.end(msp)
	r.c.MotifCalls++
	r.c.Matches += len(matches)
	if m := r.expander.MaxFeatures; m > 0 && len(matches) > m {
		matches = matches[:m]
	}
	qg := core.QueryGraph{QueryNodes: append([]kb.NodeID(nil), nodes...)}
	for _, m := range matches {
		w := float64(m.Motifs)
		if r.expander.UniformFeatureWeights {
			w = 1
		}
		qg.Features = append(qg.Features, core.Feature{Article: m.Article, Weight: w})
	}
	r.cache.Put(key, qg)
	r.tr.end(sp)
	r.c.Features += len(qg.Features)
	return qg
}

// retrieval is one top-k evaluation through the shape's searcher.
func (r *replayer) retrieval(id, parent int, node search.Node, k int) ([]search.Result, error) {
	if r.s.live != nil {
		sn := r.s.live.Acquire()
		n := sn.NumSegments()
		asked := 0
		for i := 0; i < n; i++ {
			asked += k + len(sn.Tombstones(i))
		}
		sn.Release()
		r.c.SegmentsSeen += n
		if n > 0 {
			r.c.Overfetch += float64(asked) / float64(n*k)
		}
	}
	sp := r.tr.begin("search.retrieval", id, parent)
	start := time.Now()
	res, st, err := r.retrieve(context.Background(), node, k)
	elapsed := time.Since(start)
	r.tr.end(sp)
	r.c.Stages.Retrieval += elapsed
	r.c.Retrievals++
	r.c.Search.Add(st)
	if len(st.Shards) > 0 && elapsed > 0 {
		var slowest time.Duration
		for _, sh := range st.Shards {
			if sh.Elapsed > slowest {
				slowest = sh.Elapsed
			}
		}
		r.c.ShardedEvals++
		r.c.SlowestShard += float64(slowest) / float64(elapsed)
		r.c.OutsideEval += elapsed - slowest
	}
	if r.local != nil && r.c.Retrievals%pairEvery == 0 {
		// Price the transport: the same evaluation over the same partition
		// without the wire.
		psp := r.tr.begin("search.retrieval.inproc", -1, -1)
		pstart := time.Now()
		_, _, perr := r.local.SearchWithStatsContext(context.Background(), node, k)
		r.c.PairedLocal += time.Since(pstart)
		r.tr.end(psp)
		r.c.PairedRemote += elapsed
		if err == nil {
			err = perr
		}
	}
	return res, err
}

const (
	pairEvery  = 8    // every n-th coordinator retrieval is re-run in-process
	deepK      = 1000 // the depth the paper evaluates runs at
	deepEvery  = 16   // every n-th search request is also retrieved at deepK
	allocRuns  = 64   // retrievals in the allocation probe
	echoCalls  = 256  // empty RPCs in the round-trip probe
	decodeMaxN = 2e6  // postings walked by the decode probe
)

// deepProbe retrieves the last expanded query at the paper's depth.
func (r *replayer) deepProbe() error {
	if r.lastNode == nil {
		return nil
	}
	sp := r.tr.begin("search.retrieval.k1000", -1, -1)
	_, _, err := r.retrieve(context.Background(), r.lastNode, deepK)
	r.tr.end(sp)
	return err
}

// allocProbe counts heap allocations per top-k retrieval.
func (r *replayer) allocProbe(k int) float64 {
	if r.lastNode == nil {
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		_, _, _ = r.retrieve(context.Background(), r.lastNode, k)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / allocRuns
}

// echoProbe times empty calls over the RPC wire (coordinator-s2 only).
func (r *replayer) echoProbe() error {
	if len(r.s.clients) == 0 {
		return nil
	}
	for i := 0; i < echoCalls; i++ {
		sp := r.tr.begin("rpc.roundtrip", -1, -1)
		var out struct{}
		err := r.s.clients[0].Call(context.Background(), echoMethod, struct{}{}, &out)
		r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// Write replay (live-mixed): the engine calls /v1/ingest makes.

func (r *replayer) ingestBatch(id int, op ingestOp) error {
	eng := r.s.engine
	root := r.tr.begin("request.ingest", id, -1)
	defer r.tr.end(root)
	flushes := r.s.live.Stats().Flushes
	for _, d := range op.Add {
		sp := r.tr.begin("index.ingest", id, root)
		err := eng.Ingest(d.Name, d.Text)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		if now := r.s.live.Stats().Flushes; now != flushes {
			r.tr.rename(sp, "index.ingest_flush")
			flushes = now
		}
	}
	for _, name := range op.Delete {
		sp := r.tr.begin("index.delete", id, root)
		_, err := eng.Delete(name)
		r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	if op.Compact {
		sp := r.tr.begin("index.compact", id, root)
		err := eng.CompactSegments()
		r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// liveDocs is the number of searchable documents in the live index.
func (s *shape) liveDocs() int { return s.live.Stats().LiveDocs }

// engineExpand is Engine.Expand in bench-local types.
func (s *shape) engineExpand(query string, titles []string, set string) ([]string, []weighted, error) {
	return (&expandOracle{s.engine}).expand(query, titles, set)
}

// engineDo runs one search request through the shape's engine and
// returns the ranking and the engine's own stage timings.
func (s *shape) engineDo(kind string, q benchQuery, k int) ([]ranked, stageTimings, error) {
	req := searchRequest(kind, q, k)
	req.CollectStats = true
	resp, err := s.engine.Do(context.Background(), req)
	if err != nil {
		return nil, stageTimings{}, err
	}
	if resp.Degraded.Degraded() {
		return nil, stageTimings{}, errors.New("engine degraded a replayed request")
	}
	return toRanked(resp.Results), resp.Stats.Stages, nil
}

// ---------------------------------------------------------------------
// Probes of single layers.

// tokenizeProbe times the standard analyzer over texts, per input token.
func tokenizeProbe(tr *tracer, texts []string) float64 {
	tokens := 0
	for _, t := range texts {
		tokens += len(analysis.Tokenize(t))
	}
	if tokens == 0 {
		return 0
	}
	a := analysis.Standard()
	sp := tr.begin("analysis.tokenize", -1, -1)
	start := time.Now()
	for _, t := range texts {
		_ = a.AnalyzeTerms(t)
	}
	elapsed := time.Since(start)
	tr.end(sp)
	return float64(elapsed.Nanoseconds()) / float64(tokens)
}

// decodeProbe streams postings of the on-disk index block by block and
// reports the decode cost per posting, and the bytes the index files
// hold per posting.
func (s *shape) decodeProbe(tr *tracer) (nsPerPosting, bytesPerPosting float64) {
	segs := []*index.Index{s.ix}
	bytes := int64(0)
	if s.live != nil {
		sn := s.live.Acquire()
		defer sn.Release()
		segs = segs[:0]
		for i := 0; i < sn.NumSegments(); i++ {
			if _, streamable := sn.Segment(i).StreamableTerm(sn.Segment(i).TermText(0)); streamable {
				segs = append(segs, sn.Segment(i)) // the unflushed buffer has no file
			}
		}
		bytes, _ = dirBytes(s.segDir)
	} else if fi, err := os.Stat(s.ixPath); err == nil {
		bytes = fi.Size()
	}
	var postings int64
	for _, ix := range segs {
		for id := 0; id < ix.NumTerms(); id++ {
			df, _ := ix.StoredTermStats(int32(id))
			postings += int64(df)
		}
	}
	if postings == 0 {
		return 0, 0
	}
	bytesPerPosting = float64(bytes) / float64(postings)
	ix := segs[0] // on live-mixed the oldest and, after a compaction, by far the largest
	var cur index.TermCursor
	var walked int64
	sp := tr.begin("index.decode", -1, -1)
	start := time.Now()
	for id := 0; id < ix.NumTerms() && walked < decodeMaxN; id++ {
		cur.ResetStream(ix, int32(id))
		for cur.Doc() != index.DocEnd {
			_ = cur.Freq()
			cur.Next()
			walked++
		}
	}
	elapsed := time.Since(start)
	tr.end(sp)
	cur.Release()
	return float64(elapsed.Nanoseconds()) / float64(walked), bytesPerPosting
}
