package sqe

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/rpc"
	"repro/internal/search"
	"repro/internal/search/searchtest"
)

// The differential harness. The repo's one invariant is that every
// serving shape returns the ranking, and the float64 scores, that an
// exhaustive evaluation of a monolithic index over the same documents
// returns. It is stated here once: diffRows lists the shapes, and
// TestDifferential diffs each against the oracle engine — the same
// pipeline with searchtest.Oracle as its retrieval stage — for every
// retrieval model and request shape. FuzzDifferentialScript drives the
// live index through arbitrary mutation scripts against the same oracle.

// ---- the world: one generated corpus, built once ----

type diffWorld struct {
	env     *DemoEnv
	docs    []DemoDoc              // the corpus, in index order
	queries []DemoQuery            // the queries every row answers
	oracles map[uint64]*diffOracle // by the documents held, see oracle
}

var (
	worldOnce sync.Once
	world     *diffWorld
	worldErr  error
)

// theWorld returns the shared DemoSmall world.
func theWorld(t testing.TB) *diffWorld {
	t.Helper()
	worldOnce.Do(func() {
		env, docs, err := GenerateDemoCorpus(DemoSmall)
		if err != nil {
			worldErr = err
			return
		}
		// A full ranking costs the oracle one Explain per document, and
		// an order of magnitude more under the race detector.
		queries := env.Queries[:4]
		if raceEnabled {
			queries = queries[:2]
		}
		world = &diffWorld{env: env, docs: docs, queries: queries, oracles: map[uint64]*diffOracle{}}
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return world
}

// monolithic indexes docs the way the live index and the demo do.
func monolithic(docs []DemoDoc) *Index {
	b := index.NewBuilder(analysis.Standard())
	for _, d := range docs {
		b.Add(d.Name, d.Text)
	}
	return b.Build()
}

// diffModels is the retrieval-model leg of the matrix: the inner loop
// over one built index.
var diffModels = []struct {
	name string
	opts []Option
}{
	{"dirichlet", nil},
	{"jelinek-mercer", []Option{WithRetrievalModel(ModelJelinekMercer, ModelParams{Lambda: 0.4})}},
	{"bm25", []Option{WithRetrievalModel(ModelBM25, ModelParams{})}},
}

// diffRequests is the request-shape leg: the SQE_C splice and one
// expanded run, each at a shallow and at a deep cut, the raw baseline,
// and feedback on top of an expanded run. At the deep cut the heap fills
// late and the last ranks go to documents matching only weak leaves —
// the documents a wrong non-essential set in the pruned evaluator loses.
// The oracle engine is partitioned, so it evaluates SQE_C's three runs
// one by one; every single-index row diffs its one pass against that.
func diffRequests(q DemoQuery) []SearchRequest {
	return []SearchRequest{
		{Query: q.Text, EntityTitles: q.EntityTitles, K: 10},
		{Query: q.Text, EntityTitles: q.EntityTitles, K: 200},
		{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifTS, K: 25},
		{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifTS, K: 200},
		{Query: q.Text, K: 25, Baseline: true},
		{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifT, K: 20,
			PRF: &PRFConfig{FbDocs: 5, FbTerms: 10, OrigWeight: 0.5}},
	}
}

// diffOracle answers for one set of held documents: an oracle engine
// per model over their monolithic index, and its replies, memoised —
// rows that hold the same documents share them.
type diffOracle struct {
	engines []*Engine
	replies map[[3]int]*SearchResponse // by model, query, request
}

// oracle returns the oracle for the documents a row holds, in order.
func (w *diffWorld) oracle(held []DemoDoc) *diffOracle {
	h := fnv.New64a()
	for _, d := range held {
		h.Write([]byte(d.Name))
		h.Write([]byte{0})
	}
	o := w.oracles[h.Sum64()]
	if o == nil {
		ix := monolithic(held)
		o = &diffOracle{replies: map[[3]int]*SearchResponse{}}
		for _, m := range diffModels {
			opts := append([]Option{WithDistributedSearcher(searchtest.New(ix))}, m.opts...)
			o.engines = append(o.engines, NewEngine(w.env.Engine.Graph(), ix, opts...))
		}
		w.oracles[h.Sum64()] = o
	}
	return o
}

// reply is the oracle engine's answer to ask, which the key names.
func (o *diffOracle) reply(t *testing.T, model, query, request int, ask func(*Engine) (*SearchResponse, error)) *SearchResponse {
	t.Helper()
	key := [3]int{model, query, request}
	if o.replies[key] == nil {
		resp, err := ask(o.engines[model])
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if len(resp.Results) == 0 {
			t.Fatal("the oracle ranks nothing")
		}
		o.replies[key] = resp
	}
	return o.replies[key]
}

// ---- scripts: what happens to a live index, and what it must hold ----

type opKind byte

const (
	opIngest  opKind = iota // ingest corpus document doc
	opDelete                // delete every live document named as corpus document doc
	opFlush                 // commit the buffer
	opCompact               // merge the committed segments
	opRestart               // close without flushing and reopen: the buffer is lost
	numOpKinds
)

type op struct {
	kind opKind
	doc  int
}

func ingest(from, to int) (s []op) {
	for d := from; d < to; d++ {
		s = append(s, op{opIngest, d})
	}
	return s
}

// deleteEvery deletes documents n-1, 2n-1, ... below upto.
func deleteEvery(n, upto int) (s []op) {
	for d := n - 1; d < upto; d += n {
		s = append(s, op{opDelete, d})
	}
	return s
}

func script(parts ...[]op) (s []op) {
	for _, p := range parts {
		s = append(s, p...)
	}
	return s
}

var (
	flush   = []op{{kind: opFlush}}
	compact = []op{{kind: opCompact}}
	restart = []op{{kind: opRestart}}
)

// liveRun is a live index under a script, with the model of what it must
// hold. The model is driven by the return values of the mutation calls
// alone: an operation that failed changed nothing, one that succeeded
// changed exactly what its contract says — so it stays exact under
// injected faults.
type liveRun struct {
	corpus    []DemoDoc
	dir       string
	flushDocs int
	live      *LiveIndex
	committed []modelDoc
	buffer    []modelDoc // volatile: a restart drops it
	// warm asks the queries the run is later diffed on, so a compaction
	// carries their memoised phrase and window leaves into the merged
	// segment, and the diff checks the carried entries.
	warm func(*LiveIndex) error
}

type modelDoc struct {
	doc   int
	alive bool
}

func startLiveRun(t testing.TB, corpus []DemoDoc, flushDocs int) *liveRun {
	t.Helper()
	r := &liveRun{corpus: corpus, dir: t.TempDir(), flushDocs: flushDocs, warm: warmChaos}
	var err error
	if r.live, err = OpenLiveIndex(r.dir, flushDocs); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.live.Close() })
	return r
}

// apply runs one op and returns its error after recording its effect.
func (r *liveRun) apply(o op) error {
	switch o.kind {
	case opIngest:
		d := r.corpus[o.doc]
		err := r.live.Ingest(d.Name, d.Text)
		// The document is buffered either way; an error is the size-
		// triggered flush failing.
		r.buffer = append(r.buffer, modelDoc{o.doc, true})
		if err == nil && len(r.buffer) >= r.flushDocs {
			r.commitBuffer()
		}
		return err
	case opDelete:
		name := r.corpus[o.doc].Name
		n, err := r.live.DeleteBatch([]string{name})
		if err != nil {
			return err
		}
		marked := 0
		for _, docs := range [][]modelDoc{r.committed, r.buffer} {
			for i := range docs {
				if docs[i].alive && r.corpus[docs[i].doc].Name == name {
					docs[i].alive = false
					marked++
				}
			}
		}
		if marked != n {
			return fmt.Errorf("Delete(%q) reported %d documents, the model holds %d", name, n, marked)
		}
		return nil
	case opFlush:
		err := r.live.Flush()
		if err == nil {
			r.commitBuffer()
		}
		return err
	case opCompact:
		if err := r.warm(r.live); err != nil && !fault.IsInjected(err) {
			return err
		}
		return r.live.Compact()
	case opRestart:
		if err := r.live.Close(); err != nil {
			return err
		}
		r.buffer = nil
		live, err := OpenLiveIndex(r.dir, r.flushDocs)
		if err != nil {
			return err
		}
		r.live = live
		return nil
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

func (r *liveRun) commitBuffer() {
	r.committed = append(r.committed, r.buffer...)
	r.buffer = nil
}

// held returns the documents the live index must hold, in index order.
func (r *liveRun) held() []DemoDoc {
	var out []DemoDoc
	for _, docs := range [][]modelDoc{r.committed, r.buffer} {
		for _, d := range docs {
			if d.alive {
				out = append(out, r.corpus[d.doc])
			}
		}
	}
	return out
}

// warmChaos evaluates diffLive's queries over every segment of live.
func warmChaos(live *LiveIndex) error {
	_, err := search.NewSegmentedSearcher(live).Evaluate(context.Background(), chaosQueries(), 10, search.EvalOptions{})
	return err
}

// ---- the registry ----

// A subject arranges the world's documents one way and returns how to
// put an engine on the arrangement (called once per retrieval model)
// and the documents it then holds, in index order.
type subject func(t *testing.T, w *diffWorld) (engine func(opts ...Option) *Engine, held []DemoDoc)

// diffRows is every serving shape. Adding one is one line.
var diffRows = []struct {
	name string
	subject
}{
	{"memory", memory()},
	{"memory-unpruned", memory(WithPruning(false))},
	{"v2", v2File()},
	{"v2-shards-2", v2File(WithShards(2))},
	{"shards-1", memory(WithShards(1))},
	{"shards-2", memory(WithShards(2))},
	{"shards-4", memory(WithShards(4))},
	{"shards-4-unpruned", memory(WithShards(4), WithPruning(false))},
	{"rpc-2", loopbackRPC(2)},
	{"lru", lru(4096, false)},
	{"lru-evicting", lru(16, true)},
	{"segmented-flush7", segmented(7, ingest(0, all))},
	{"segmented-flush7-compacted", segmented(7, script(ingest(0, all), compact))},
	{"segmented-flush7-deletes", segmented(7, script(ingest(0, all), deleteEvery(5, all)))},
	{"segmented-flush7-deletes-compacted", segmented(7, script(ingest(0, all), deleteEvery(5, all), compact))},
	// The second compaction merges a base that has answered the row's
	// questions with the segments flushed since: its phrase and window
	// leaves are carried, renumbered past the deletes, not refilled.
	{"segmented-recompacted", segmented(7, script(ingest(0, 1600), compact, ingest(1600, all), deleteEvery(5, all), compact))},
	{"segmented-buffered", segmented(all+1, ingest(0, all))},
	{"segmented-buffered-deletes", segmented(all+1, script(ingest(0, all), deleteEvery(5, all)))},
	// A crash with 40 documents still in the buffer: the reopened index
	// holds what was committed, deletes and compaction included.
	{"segmented-reopened", segmented(64, script(ingest(0, all), deleteEvery(5, all), flush, compact, ingest(0, 40), restart))},
	// A compacted 1 600-document base beside seven-document segments,
	// tombstones in both, holding segmented-flush7-deletes' documents:
	// at K = 10 the base can drop SQE_S's backfill run and the small
	// segments cannot, so one request drops it in some segments and
	// keeps it in others.
	{"segmented-mixed", segmented(7, script(ingest(0, 1600), compact, ingest(1600, all), deleteEvery(5, all)))},
	// The first 400 documents twice each under their names: T&S can hold
	// K documents but fewer names, and Do evaluates again with S kept.
	{"segmented-duplicated", segmented(all+1, script(ingest(0, 400), ingest(0, 400), flush))},
}

// diffRow returns the diffRows row called name.
func diffRow(t *testing.T, name string) subject {
	for _, row := range diffRows {
		if row.name == name {
			return row.subject
		}
	}
	t.Fatalf("no diffRows row %q", name)
	return nil
}

// all is the size of the DemoSmall corpus, which the scripts above
// index into; TestDifferential checks it.
const all = 2200

func memory(opts ...Option) subject {
	return func(t *testing.T, w *diffWorld) (func(...Option) *Engine, []DemoDoc) {
		return func(model ...Option) *Engine {
			return NewEngine(w.env.Engine.Graph(), w.env.Engine.Index(), append(model, opts...)...)
		}, w.docs
	}
}

// v2File serves the corpus from an mmap'd FormatV2 file.
func v2File(opts ...Option) subject {
	return func(t *testing.T, w *diffWorld) (func(...Option) *Engine, []DemoDoc) {
		path := filepath.Join(t.TempDir(), "ix.v2")
		if err := index.WriteFile(path, w.env.Engine.Index(), index.FormatV2); err != nil {
			t.Fatal(err)
		}
		v2, err := index.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := v2.Err(); err != nil {
				t.Errorf("v2 lazy decode recorded an error: %v", err)
			}
			v2.Close()
		})
		return func(model ...Option) *Engine {
			return NewEngine(w.env.Engine.Graph(), v2, append(model, opts...)...)
		}, w.docs
	}
}

// loopbackRPC serves the corpus from n shard servers on loopback TCP
// behind the RPC coordinator.
func loopbackRPC(n int) subject {
	return func(t *testing.T, w *diffWorld) (func(...Option) *Engine, []DemoDoc) {
		ix := w.env.Engine.Index()
		sh := index.NewSharded(ix, n)
		addrs := make([]string, n)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := rpc.NewServer()
			search.NewShardService(sh.Shard(i), i, n).Register(srv)
			go func() { _ = srv.Serve(ln) }()
			t.Cleanup(srv.Close)
			addrs[i] = ln.Addr().String()
		}
		return func(model ...Option) *Engine {
			groups := make([]*rpc.Group, n)
			for i, addr := range addrs {
				groups[i] = rpc.NewGroup([]*rpc.Client{rpc.NewClient(addr, rpc.ClientOptions{})}, rpc.GroupOptions{})
			}
			rs, err := search.NewRemoteSharded(context.Background(), groups)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rs.Close)
			return NewEngine(w.env.Engine.Graph(), ix, append(model, WithDistributedSearcher(rs))...)
		}, w.docs
	}
}

// lru serves expansion through an expansion cache of the given
// capacity, so rankings are built on cached graphs. With churn the cache
// is first filled with the expansions of the demo queries the harness
// does not ask, so the asks' own misses evict. The row fails unless the
// asks hit the cache and, with churn, also evicted from it.
func lru(capacity int, churn bool) subject {
	return func(t *testing.T, w *diffWorld) (func(...Option) *Engine, []DemoDoc) {
		return func(model ...Option) *Engine {
			eng := NewEngine(w.env.Engine.Graph(), w.env.Engine.Index(), append(model, WithExpansionCache(capacity))...)
			if churn {
				for _, q := range w.env.Queries[len(w.queries):] {
					for _, set := range []MotifSet{MotifT, MotifTS, MotifS} {
						if _, err := eng.Expand(q.Text, q.EntityTitles, set); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			before, _ := eng.ExpansionCacheStats()
			t.Cleanup(func() {
				if cs, _ := eng.ExpansionCacheStats(); cs.Hits == before.Hits || churn && cs.Evictions == before.Evictions {
					t.Errorf("capacity %d: the asks did not exercise the cache: %+v before, %+v after", capacity, before, cs)
				}
			})
			return eng
		}, w.docs
	}
}

// segmented streams the script into a live index flushing every
// flushDocs documents. A compaction first asks the row's questions, so
// the merged segment's phrase and window leaves are the carried ones.
func segmented(flushDocs int, s []op) subject {
	return func(t *testing.T, w *diffWorld) (func(...Option) *Engine, []DemoDoc) {
		r := startLiveRun(t, w.docs, flushDocs)
		r.warm = func(live *LiveIndex) error {
			eng := NewLiveEngine(w.env.Engine.Graph(), live)
			for _, q := range w.queries {
				for _, ask := range diffAsks(q, true) {
					if _, err := ask(eng); err != nil {
						return err
					}
				}
			}
			return nil
		}
		for i, o := range s {
			if err := r.apply(o); err != nil {
				t.Fatalf("op %d (%+v): %v", i, o, err)
			}
		}
		return func(model ...Option) *Engine {
			return NewLiveEngine(w.env.Engine.Graph(), r.live, model...)
		}, r.held()
	}
}

// diffAsks is what TestDifferential asks each row about q: a
// hand-written structured query, parsed, and diffRequests — without the
// PRF request on a live engine, which rejects it
// (TestSegmentedEngineRejectsPRF).
func diffAsks(q DemoQuery, live bool) []func(*Engine) (*SearchResponse, error) {
	asks := []func(*Engine) (*SearchResponse, error){
		func(e *Engine) (*SearchResponse, error) {
			res, err := e.ParseQuery(context.Background(), fmt.Sprintf("#weight(0.7 #combine(%s) 0.3 #uw8(%s))", q.Text, q.Text), 15)
			return &SearchResponse{Results: res}, err
		},
	}
	for _, req := range diffRequests(q) {
		if req.PRF == nil || !live {
			asks = append(asks, func(e *Engine) (*SearchResponse, error) { return e.Do(context.Background(), req) })
		}
	}
	return asks
}

// TestDifferential: every row returns, for every retrieval model and
// request shape, the oracle engine's ranking — names, order, score bits
// — and its expansion.
func TestDifferential(t *testing.T) {
	w := theWorld(t)
	if len(w.docs) != all {
		t.Fatalf("DemoSmall has %d documents; the scripts are written for %d", len(w.docs), all)
	}
	for _, row := range diffRows {
		t.Run(row.name, func(t *testing.T) {
			engine, held := row.subject(t, w)
			oracle := w.oracle(held)
			for mi, m := range diffModels {
				eng := engine(m.opts...)
				for qi, q := range w.queries {
					for ai, ask := range diffAsks(q, eng.Live() != nil) {
						want := oracle.reply(t, mi, qi, ai, ask)
						got, err := ask(eng)
						if err != nil {
							t.Fatalf("%s %s ask %d: %v", m.name, q.ID, ai, err)
						}
						if !reflect.DeepEqual(got.Results, want.Results) {
							t.Fatalf("%s %s ask %d: ranking diverges from the oracle\n got: %v\nwant: %v", m.name, q.ID, ai, got.Results, want.Results)
						}
						if !reflect.DeepEqual(got.Expansion, want.Expansion) {
							t.Fatalf("%s %s ask %d: expansion diverges from the oracle", m.name, q.ID, ai)
						}
					}
				}
			}
		})
	}
}

// ---- the script fuzzer ----

// chaosCorpus is n documents over a small skewed vocabulary, so
// postings overlap heavily (ties, shared terms, phrase matches).
func chaosCorpus(n int, seed int64) []DemoDoc {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]DemoDoc, n)
	for i := range docs {
		docs[i] = DemoDoc{Name: fmt.Sprintf("d%03d", i), Text: chaosText(rng)}
	}
	return docs
}

// diffLive checks that the live index holds exactly held, in order, and
// diffs a searcher over it against the oracle over held for every chaos
// query and retrieval model.
func diffLive(t *testing.T, live *LiveIndex, held []DemoDoc) {
	t.Helper()
	sn := live.Acquire()
	names := sn.LiveDocNames()
	sn.Release()
	if len(names) != len(held) {
		t.Fatalf("the live index holds %d documents, the model %d", len(names), len(held))
	}
	for i, d := range held {
		if names[i] != d.Name {
			t.Fatalf("document %d is %s, the model says %s", i, names[i], d.Name)
		}
	}
	gs := search.NewSegmentedSearcher(live)
	mono := search.NewSearcher(monolithic(held))
	for _, m := range []search.Model{search.ModelDirichlet, search.ModelJelinekMercer, search.ModelBM25} {
		gs.Model, mono.Model = m, m
		qs := chaosQueries()
		got, err := gs.Evaluate(context.Background(), qs, 10, search.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range qs {
			if want := searchtest.Rank(mono, q, 10); !reflect.DeepEqual(got.Results[qi], want) {
				t.Errorf("model %v query %d: live index diverges from the oracle\n got: %v\nwant: %v", m, qi, got.Results[qi], want)
			}
		}
	}
}

// maxFuzzOps caps a fuzzed script: the mutator grows inputs without
// bound and every op is file I/O.
const maxFuzzOps = 400

// FuzzDifferentialScript turns bytes into a mutation script over a
// 40-document corpus (two bytes an op: kind, document), runs it against
// a live index flushing every 8 documents, and diffs the result against
// the oracle over what the model says survives. A non-zero faultSeed
// injects flush, merge and manifest-commit failures into the mutations.
// The seed corpus is testdata/fuzz/FuzzDifferentialScript.
func FuzzDifferentialScript(f *testing.F) {
	corpus := chaosCorpus(40, 1)
	f.Fuzz(func(t *testing.T, raw []byte, faultSeed int64) {
		var reg *fault.Registry
		if faultSeed != 0 {
			reg = fault.NewRegistry(faultSeed).
				Set(fault.SegmentFlush, fault.Policy{ErrRate: 0.30}).
				Set(fault.SegmentMerge, fault.Policy{ErrRate: 0.30}).
				Set(fault.SegmentManifest, fault.Policy{ErrRate: 0.25})
		}
		defer fault.Disarm()
		r := startLiveRun(t, corpus, 8)
		for i := 0; i+1 < len(raw) && i < 2*maxFuzzOps; i += 2 {
			// Ingests are half of all ops, so the index fills.
			o := op{kind: opKind(raw[i] % (2 * byte(numOpKinds))), doc: int(raw[i+1]) % len(corpus)}
			if o.kind >= numOpKinds {
				o.kind = opIngest
			}
			if o.kind != opRestart {
				fault.Arm(reg) // a nil registry arms nothing
			}
			err := r.apply(o)
			fault.Disarm()
			if err != nil && !fault.IsInjected(err) {
				t.Fatalf("op %d (%+v): %v", i/2, o, err)
			}
		}
		diffLive(t, r.live, r.held())
	})
}
