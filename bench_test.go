package sqe

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md §13 for the experiment index):
//
//	BenchmarkFigure2          — ground-truth cycle analysis (Fig. 2a/2b/2c)
//	BenchmarkTable1           — configuration study on Image CLEF (Table 1)
//	BenchmarkFigure5          — % improvement per motif config (Fig. 5)
//	BenchmarkTable2*          — SQE_C evaluation per dataset (Tables 2a-c)
//	BenchmarkFigure6*         — % improvement of SQE_C per dataset (Fig. 6)
//	BenchmarkTable3*          — PRF comparison per dataset (Tables 3a-c)
//	BenchmarkTable4           — expansion wall-clock times (Table 4)
//
// Precision shapes are exported through b.ReportMetric (P@5, P@100, …),
// so `go test -bench . -benchmem` reproduces both the numbers and the
// costs. Ablation benches cover the design choices DESIGN.md §13 calls
// out, and micro-benches cover the substrates.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/kb"
	"repro/internal/motif"
	"repro/internal/rpc"
	"repro/internal/search"
	"repro/internal/wikigen"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
	benchErr   error
)

// suite returns the shared default-scale experimental environment;
// generated once, deterministic.
func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() { benchSuite, benchErr = experiments.NewSuite(dataset.ScaleDefault) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

func reportPrecision(b *testing.B, rep *eval.Report) {
	b.Helper()
	b.ReportMetric(rep.Mean[5], "P@5")
	b.ReportMetric(rep.Mean[30], "P@30")
	b.ReportMetric(rep.Mean[1000]*1000, "relret@1000")
}

// BenchmarkFigure2 regenerates the structural analysis of the
// ground-truth query graphs (paper Figure 2).
func BenchmarkFigure2(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		f2 := experiments.Figure2(s)
		b.ReportMetric(f2.CategoryRatio[3], "catRatio@3")
		b.ReportMetric(f2.Contribution[3], "contrib@3")
		b.ReportMetric(f2.GroundTruthP[5], "gtP@5")
	}
}

// BenchmarkTable1 regenerates the configuration study (paper Table 1).
func BenchmarkTable1(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		t1 := experiments.Table1(s)
		b.ReportMetric(t1.Reports["SQE_T"].Mean[5], "SQE_T:P@5")
		b.ReportMetric(t1.Reports["QL_Q"].Mean[5], "QL_Q:P@5")
		b.ReportMetric(t1.UBRatioAvg*100, "%ofUB")
	}
}

// BenchmarkFigure5 regenerates the per-configuration improvement curves
// (paper Figure 5).
func BenchmarkFigure5(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		t1 := experiments.Table1(s)
		f5 := experiments.Figure5(t1)
		for _, series := range f5.Series {
			if series.Name == "SQE_T" {
				b.ReportMetric(series.Values[5], "SQE_T:%impr@5")
			}
		}
	}
}

func benchTable2(b *testing.B, pick func(*experiments.Suite) *dataset.Instance) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		t2 := experiments.Table2(s, pick(s))
		reportPrecision(b, t2.Reports["SQE_C (M)"])
	}
}

// BenchmarkTable2ImageCLEF regenerates paper Table 2a.
func BenchmarkTable2ImageCLEF(b *testing.B) {
	benchTable2(b, func(s *experiments.Suite) *dataset.Instance { return s.ImageCLEF })
}

// BenchmarkTable2CHiC2012 regenerates paper Table 2b.
func BenchmarkTable2CHiC2012(b *testing.B) {
	benchTable2(b, func(s *experiments.Suite) *dataset.Instance { return s.CHiC2012 })
}

// BenchmarkTable2CHiC2013 regenerates paper Table 2c.
func BenchmarkTable2CHiC2013(b *testing.B) {
	benchTable2(b, func(s *experiments.Suite) *dataset.Instance { return s.CHiC2013 })
}

// BenchmarkFigure6 regenerates the SQE_C improvement curves for every
// dataset (paper Figure 6a/6b/6c).
func BenchmarkFigure6(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		for _, inst := range s.Instances() {
			t2 := experiments.Table2(s, inst)
			f6 := experiments.Figure6(t2)
			for _, series := range f6.Series {
				if series.Name == "SQE_C (M)" && inst == s.ImageCLEF {
					b.ReportMetric(series.Values[5], "IC:%impr@5")
				}
			}
		}
	}
}

func benchTable3(b *testing.B, pick func(*experiments.Suite) *dataset.Instance) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		inst := pick(s)
		t2 := experiments.Table2(s, inst)
		t3 := experiments.Table3(s, inst, t2)
		b.ReportMetric(t3.Reports["PRF_Q"].Mean[5], "PRF_Q:P@5")
		b.ReportMetric(t3.Reports["SQE_C/PRF"].Mean[5], "SQE∘PRF:P@5")
	}
}

// BenchmarkTable3ImageCLEF regenerates paper Table 3a.
func BenchmarkTable3ImageCLEF(b *testing.B) {
	benchTable3(b, func(s *experiments.Suite) *dataset.Instance { return s.ImageCLEF })
}

// BenchmarkTable3CHiC2012 regenerates paper Table 3b.
func BenchmarkTable3CHiC2012(b *testing.B) {
	benchTable3(b, func(s *experiments.Suite) *dataset.Instance { return s.CHiC2012 })
}

// BenchmarkTable3CHiC2013 regenerates paper Table 3c.
func BenchmarkTable3CHiC2013(b *testing.B) {
	benchTable3(b, func(s *experiments.Suite) *dataset.Instance { return s.CHiC2013 })
}

// BenchmarkTable4 regenerates the expansion-time measurements (paper
// Table 4); the per-dataset expansion time is also this benchmark's own
// wall-clock, reported as ms per query set.
func BenchmarkTable4(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		t4 := experiments.Table4(s)
		b.ReportMetric(float64(t4.Expansion[motif.SetTS][s.ImageCLEF.Name].Microseconds())/1000, "IC:T&S_ms")
		b.ReportMetric(float64(t4.Total[s.ImageCLEF.Name].Microseconds())/1000, "IC:total_ms")
	}
}

// --- Ablation benches (DESIGN.md §13) -----------------------------------

func benchAblation(b *testing.B, row string) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		res := experiments.Ablations(s, s.ImageCLEF)
		rep := res.Reports[row]
		if rep == nil {
			b.Fatalf("no ablation row %q", row)
		}
		b.ReportMetric(rep.Mean[5], "P@5")
		b.ReportMetric(rep.Mean[100], "P@100")
	}
}

// BenchmarkAblationFull is the reference SQE_T&S configuration.
func BenchmarkAblationFull(b *testing.B) { benchAblation(b, "full") }

// BenchmarkAblationUniformWeights drops the |m_a|-proportional feature
// weighting.
func BenchmarkAblationUniformWeights(b *testing.B) { benchAblation(b, "uniform-weights") }

// BenchmarkAblationSingleLink drops the double-link requirement.
func BenchmarkAblationSingleLink(b *testing.B) { benchAblation(b, "single-link") }

// BenchmarkAblationNoCategories drops the category conditions.
func BenchmarkAblationNoCategories(b *testing.B) { benchAblation(b, "no-categories") }

// BenchmarkAblationSpliceCuts moves the SQE_C cut points to 2/50.
func BenchmarkAblationSpliceCuts(b *testing.B) { benchAblation(b, "splice-2/50") }

// BenchmarkAblationSmallMu runs the retrieval model with μ=250.
func BenchmarkAblationSmallMu(b *testing.B) { benchAblation(b, "mu-250") }

// --- Substrate micro-benches -------------------------------------------

// BenchmarkMotifExpansionPerQuery measures one query-graph construction
// (the unit behind Table 4's per-set times).
func BenchmarkMotifExpansionPerQuery(b *testing.B) {
	s := suite(b)
	r := s.NewRunner(s.ImageCLEF)
	queries := s.ImageCLEF.Queries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := &queries[i%len(queries)]
		_ = r.Expander.BuildQueryGraph(r.Entities(q, true), motif.SetTS)
	}
}

// BenchmarkSearchBaseline measures one plain query-likelihood retrieval.
func BenchmarkSearchBaseline(b *testing.B) {
	s := suite(b)
	r := s.NewRunner(s.ImageCLEF)
	queries := s.ImageCLEF.Queries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := &queries[i%len(queries)]
		_, _ = r.Searcher.Evaluate(context.Background(), []search.Node{r.Expander.QLQuery(q.Text)}, 1000, search.EvalOptions{})
	}
}

// expandedNodes builds the fully expanded SQE_T&S query of every query
// of r's instance — the many-phrase-feature workload the document-at-a-
// time evaluator targets.
func expandedNodes(r *experiments.Runner) []search.Node {
	queries := r.Inst.Queries
	nodes := make([]search.Node, len(queries))
	for qi := range queries {
		q := &queries[qi]
		qg := r.Expander.BuildQueryGraph(r.Entities(q, true), motif.SetTS)
		nodes[qi] = r.Expander.BuildQuery(q.Text, qg)
	}
	return nodes
}

// benchSearchTopK measures top-k retrieval alone over prebuilt queries.
func benchSearchTopK(b *testing.B, s *search.Searcher, nodes []search.Node, k int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Evaluate(context.Background(), nodes[i%len(nodes):i%len(nodes)+1], k, search.EvalOptions{})
	}
}

// BenchmarkSearchExpandedTopKDAAT is the document-at-a-time evaluator
// on ImageCLEF; the CHiC sub-benchmarks span k × index backing, the one-command A/B of an evaluator change below the HTTP
// tier (run it on both commits, compare cell by cell).
func BenchmarkSearchExpandedTopKDAAT(b *testing.B) {
	s := suite(b)
	b.Run("ImageCLEF", func(b *testing.B) {
		r := s.NewRunner(s.ImageCLEF)
		benchSearchTopK(b, r.Searcher, expandedNodes(r), 10)
	})
	r := s.NewRunner(s.CHiC2012)
	nodes := expandedNodes(r)
	path := filepath.Join(b.TempDir(), "chic.v2")
	if err := index.WriteFile(path, s.CHiC2012.Index, index.FormatV2); err != nil {
		b.Fatal(err)
	}
	disk, err := index.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	for _, k := range []int{10, 1000} {
		for _, backing := range []struct {
			name string
			ix   *index.Index
		}{{"memory", s.CHiC2012.Index}, {"v2", disk}} {
			b.Run(fmt.Sprintf("CHiC/k=%d/%s", k, backing.name), func(b *testing.B) {
				benchSearchTopK(b, search.NewSearcher(backing.ix), nodes, k)
			})
		}
	}
}

// benchSearchTopKSharded is the ImageCLEF top-10 workload routed through
// S index shards. On a multi-core runner the per-shard evaluations
// overlap; on one core the numbers expose the fan-out's coordination
// overhead.
func benchSearchTopKSharded(b *testing.B, shards int) {
	s := suite(b)
	nodes := expandedNodes(s.NewRunner(s.ImageCLEF))
	ss := search.NewShardedSearcher(index.NewSharded(s.ImageCLEF.Index, shards))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ss.Evaluate(context.Background(), nodes[i%len(nodes):i%len(nodes)+1], 10, search.EvalOptions{})
	}
}

func BenchmarkSearchExpandedTopKSharded2(b *testing.B) { benchSearchTopKSharded(b, 2) }
func BenchmarkSearchExpandedTopKSharded4(b *testing.B) { benchSearchTopKSharded(b, 4) }
func BenchmarkSearchExpandedTopKSharded8(b *testing.B) { benchSearchTopKSharded(b, 8) }

// BenchmarkRemoteEvaluate is the coordinator-s2 shape below the HTTP
// tier: expanded CHiC queries at k = 10 over two shard servers on
// loopback behind NewRemoteSharded, so each op is one shard.stats plus
// one shard.eval per shard. Client and servers share the process, so
// B/op and allocs/op count both ends of the wire.
func BenchmarkRemoteEvaluate(b *testing.B) {
	s := suite(b)
	nodes := expandedNodes(s.NewRunner(s.CHiC2012))
	sh := index.NewSharded(s.CHiC2012.Index, 2)
	groups := make([]*rpc.Group, sh.NumShards())
	for i := range groups {
		srv := rpc.NewServer()
		search.NewShardService(sh.Shard(i), i, sh.NumShards()).Register(srv)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		groups[i] = rpc.NewGroup([]*rpc.Client{rpc.NewClient(ln.Addr().String(), rpc.ClientOptions{MaxRetries: -1})}, rpc.GroupOptions{})
	}
	rs, err := search.NewRemoteSharded(context.Background(), groups)
	if err != nil {
		b.Fatal(err)
	}
	defer rs.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.Evaluate(context.Background(), nodes[i%len(nodes):i%len(nodes)+1], 10, search.EvalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchExpanded measures one full SQE_T&S retrieval including
// expansion and query construction.
func BenchmarkSearchExpanded(b *testing.B) {
	s := suite(b)
	r := s.NewRunner(s.ImageCLEF)
	queries := s.ImageCLEF.Queries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := &queries[i%len(queries)]
		qg := r.Expander.BuildQueryGraph(r.Entities(q, true), motif.SetTS)
		_, _ = r.Searcher.Evaluate(context.Background(), []search.Node{r.Expander.BuildQuery(q.Text, qg)}, 1000, search.EvalOptions{})
	}
}

// BenchmarkEntityLinking measures the Dexter+Alchemy-like linker on
// query text.
func BenchmarkEntityLinking(b *testing.B) {
	s := suite(b)
	queries := s.ImageCLEF.Queries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Linker.LinkArticles(queries[i%len(queries)].Text)
	}
}

// BenchmarkWorldGeneration measures synthetic-Wikipedia generation at the
// default scale.
func BenchmarkWorldGeneration(b *testing.B) {
	cfg := wikigen.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := wikigen.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphEncodeDecode measures KB graph (de)serialisation.
func BenchmarkGraphEncodeDecode(b *testing.B) {
	s := suite(b)
	var buf bytes.Buffer
	if err := kb.Encode(&buf, s.World.Graph); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kb.Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKBDecode is the KB's boot cost at paper-ward scale: kb.Decode
// of the default world's encoding with TopicsPerDomain ×1, ×8 and ×32
// (5 806, 46 115 and 184 303 articles). heap-MB is the Go heap the
// decoded graph holds, measured after runtime.GC against the heap before
// Decode. Each scale's world is generated once per process, untimed;
// generating ×32 takes ~7 s of the run.
func BenchmarkKBDecode(b *testing.B) {
	for _, scale := range []int{1, 8, 32} {
		var data []byte // the encoding, kept across the b.N rounds
		b.Run(fmt.Sprintf("x%d", scale), func(b *testing.B) {
			if data == nil {
				cfg := wikigen.DefaultConfig()
				cfg.TopicsPerDomain *= scale
				w, err := wikigen.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				var buf bytes.Buffer
				if err := kb.Encode(&buf, w.Graph); err != nil {
					b.Fatal(err)
				}
				data = buf.Bytes()
			}
			var heap float64
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				before := liveHeap()
				b.StartTimer()
				g, err := kb.Decode(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				heap += float64(int64(liveHeap())-int64(before)) / (1 << 20)
				runtime.KeepAlive(g)
				b.StartTimer()
			}
			b.ReportMetric(heap/float64(b.N), "heap-MB")
		})
	}
}

// BenchmarkPorterStem measures the stemmer on a representative word mix.
func BenchmarkPorterStem(b *testing.B) {
	words := []string{"generalizations", "running", "cars", "relational", "sky", "hopefulness", "funicular"}
	for i := 0; i < b.N; i++ {
		_ = analysis.PorterStem(words[i%len(words)])
	}
}

// BenchmarkPhrasePostings measures exact-phrase materialisation on the
// benchmark index.
func BenchmarkPhrasePostings(b *testing.B) {
	s := suite(b)
	ix := s.ImageCLEF.Index
	g := s.World.Graph
	// Use real two-word entity titles as phrases.
	var phrases [][]string
	a := analysis.Standard()
	for _, t := range s.World.Topics[:32] {
		phrases = append(phrases, a.AnalyzeTerms(g.Title(t.Entity())))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.PhrasePostings(phrases[i%len(phrases)])
	}
}

// BenchmarkPositionalColdV2 is the cold cost of positional leaves: each
// op opens CHiC 2012's v2 file afresh (untimed) and resolves every
// multi-word KB article title through PhraseLeaf, as the first queries
// of a new process do. heap-MB is the Go heap the opened index holds
// live afterwards — its metadata, the memo, and any term row a fill
// left decoded — measured after runtime.GC against the heap before Open.
func BenchmarkPositionalColdV2(b *testing.B) {
	s := suite(b)
	path := filepath.Join(b.TempDir(), "chic.v2")
	if err := index.WriteFile(path, s.CHiC2012.Index, index.FormatV2); err != nil {
		b.Fatal(err)
	}
	a, g := s.CHiC2012.Index.Analyzer(), s.World.Graph
	var titles [][]string
	g.Articles(func(id kb.NodeID) bool {
		if terms := a.AnalyzeTerms(g.Title(id)); len(terms) > 1 {
			titles = append(titles, terms)
		}
		return true
	})
	var sc index.PositionalScratch
	var heap float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveHeap()
		disk, err := index.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, t := range titles {
			disk.PhraseLeaf(t, &sc)
		}
		b.StopTimer()
		heap += float64(int64(liveHeap())-int64(before)) / (1 << 20)
		disk.Close()
		b.StartTimer()
	}
	b.ReportMetric(heap/float64(b.N), "heap-MB")
	b.ReportMetric(float64(len(titles)), "titles")
}

// BenchmarkDocVectorColdV2 is the first feedback document of a PRF
// request on a new process: each op opens CHiC 2012's v2 file afresh
// (untimed) and reads one forward vector, which builds the forward
// index. heap-MB is the Go heap the opened index holds live afterwards —
// its metadata, the forward index, and any term row the build left
// decoded — measured as BenchmarkPositionalColdV2 measures it.
func BenchmarkDocVectorColdV2(b *testing.B) {
	s := suite(b)
	path := filepath.Join(b.TempDir(), "chic.v2")
	if err := index.WriteFile(path, s.CHiC2012.Index, index.FormatV2); err != nil {
		b.Fatal(err)
	}
	var heap float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveHeap()
		disk, err := index.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		disk.DocVector(0)
		b.StopTimer()
		heap += float64(int64(liveHeap())-int64(before)) / (1 << 20)
		disk.Close()
		b.StartTimer()
	}
	b.ReportMetric(heap/float64(b.N), "heap-MB")
}

// liveHeap is the Go heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkMotifMining measures the future-work template miner over the
// full ground truth.
func BenchmarkMotifMining(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.MineMotifs(s, s.ImageCLEF)
	}
}

// BenchmarkCrossKBMining runs the template miner on both KB profiles
// (the paper's "other KBs, other structures" conjecture).
func BenchmarkCrossKBMining(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CrossKBMining(s, dataset.ScaleDefault); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseQuery measures the structured-query parser.
func BenchmarkParseQuery(b *testing.B) {
	a := analysis.Standard()
	q := `#weight(2 #combine(cable car rides) 1 #1(san francisco) 1 #uw8(golden gate bridge))`
	for i := 0; i < b.N; i++ {
		if _, err := search.Parse(a, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnorderedWindow measures #uwN postings materialisation.
func BenchmarkUnorderedWindow(b *testing.B) {
	s := suite(b)
	ix := s.ImageCLEF.Index
	a := analysis.Standard()
	var windows [][]string
	for _, t := range s.World.Topics[:32] {
		terms := a.AnalyzeTerms(s.World.Graph.Title(t.Entity()))
		if len(terms) >= 2 {
			windows = append(windows, terms)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := windows[i%len(windows)]
		_ = ix.UnorderedWindowPostings(w, len(w)+2)
	}
}

// BenchmarkSQECRequest is one SQE_C Engine.Do (k = 10, explicit
// entities) over the DemoDefault corpus, warmed so the expansion cache
// and the positional memo hit: a search-hot request below the HTTP tier
// — entity resolution, three query builds, the one evaluation over the
// trees' union of leaves, and the splice. The sub-benchmarks replay the
// same requests over three serving shapes of the same documents: one v2
// file, two in-process shards of it, and a live index of v2 segments
// (one flushed every 1 024 documents) — and over the v2 file once more
// under DefaultDegradation, the configuration sqe-serve and bench/ serve
// with. At k = 10 S is a backfill tree, dropped once T&S holds k
// documents; v2-k=1000 is the v2 file at the paper's run depth, where
// the page reaches S's ranks and all three trees are ranked.
func BenchmarkSQECRequest(b *testing.B) {
	env, docs, err := GenerateDemoCorpus(DemoDefault)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "demo.v2")
	if err := index.WriteFile(path, env.Engine.Index(), index.FormatV2); err != nil {
		b.Fatal(err)
	}
	disk, err := index.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	live, err := OpenLiveIndex(b.TempDir(), 1024)
	if err != nil {
		b.Fatal(err)
	}
	defer live.Close()
	for _, d := range docs {
		if err := live.Ingest(d.Name, d.Text); err != nil {
			b.Fatal(err)
		}
	}
	if err := live.Flush(); err != nil {
		b.Fatal(err)
	}
	g := env.Engine.Graph()
	ctx := context.Background()
	for _, shape := range []struct {
		name string
		eng  *Engine
		k    int
	}{
		{"v2", NewEngine(g, disk, WithExpansionCache(4096)), 10},
		{"v2+degrade", NewEngine(g, disk, WithExpansionCache(4096), WithDegradation(DefaultDegradation())), 10},
		{"shards=2", NewEngine(g, disk, WithExpansionCache(4096), WithShards(2)), 10},
		{"live", NewLiveEngine(g, live, WithExpansionCache(4096)), 10},
		{"v2-k=1000", NewEngine(g, disk, WithExpansionCache(4096)), 1000},
	} {
		reqs := make([]SearchRequest, len(env.Queries))
		for i, q := range env.Queries {
			reqs[i] = SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: shape.k}
		}
		b.Run(shape.name, func(b *testing.B) {
			for _, req := range reqs { // warm
				if _, err := shape.eng.Do(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := shape.eng.Do(ctx, reqs[i%len(reqs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSQECAfterCompact is one lap of SQE_C requests (k = 10, one
// per DemoDefault query) right after a compaction of a warmed live
// engine: live-mixed's read path at the moment its base segment is new.
// Untimed before each lap, 64 fresh copies of corpus documents are
// ingested and flushed, the previous lap's copies deleted, and the
// segments compacted; the lap before has resolved every leaf on every
// segment. The merged segment starts with the leaves its inputs
// resolved, so a lap costs about what a warm one does; without that it
// re-runs every phrase and window intersection on the merged base.
// ns/op is one lap.
func BenchmarkSQECAfterCompact(b *testing.B) {
	env, docs, err := GenerateDemoLive(DemoDefault, b.TempDir(), 1<<20, WithExpansionCache(4096)) // no automatic flush
	if err != nil {
		b.Fatal(err)
	}
	eng := env.Engine
	defer eng.Live().Close()
	for _, d := range docs {
		if err := eng.Ingest(d.Name, d.Text); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Flush(); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	lap := func() {
		for _, q := range env.Queries {
			if _, err := eng.Do(ctx, SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10}); err != nil {
				b.Fatal(err)
			}
		}
	}
	lap()
	var copies []string
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dead := copies
		copies = nil
		for j := range 64 {
			d := docs[(i*64+j)%len(docs)]
			name := fmt.Sprintf("%s~%d", d.Name, i)
			if err := eng.Ingest(name, d.Text); err != nil {
				b.Fatal(err)
			}
			copies = append(copies, name)
		}
		if err := eng.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.DeleteBatch(dead); err != nil {
			b.Fatal(err)
		}
		if err := eng.CompactSegments(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		lap()
	}
}

// BenchmarkSegmentedTombstoned is SQE_C retrieval (k = 10) over a live
// index holding the DemoSmall collection as one v2 segment, with 0, 64
// and 1 024 of its documents tombstoned, warmed so the expansion cache,
// the positional memo and the tombstone-correction memo all hit. A
// tombstone costs one bit test per candidate and nothing per leaf, so
// ns/op and allocs/op must stay flat from the first row to the last.
func BenchmarkSegmentedTombstoned(b *testing.B) {
	for _, tombstones := range []int{0, 64, 1024} {
		b.Run(fmt.Sprintf("tombstones=%d", tombstones), func(b *testing.B) {
			env, docs, err := GenerateDemoLive(DemoSmall, b.TempDir(), 1<<20, WithExpansionCache(256)) // no automatic flush
			if err != nil {
				b.Fatal(err)
			}
			defer env.Engine.Live().Close()
			for _, d := range docs {
				if err := env.Engine.Ingest(d.Name, d.Text); err != nil {
					b.Fatal(err)
				}
			}
			if err := env.Engine.Flush(); err != nil {
				b.Fatal(err)
			}
			var dead []string
			for i := 0; i < tombstones; i++ {
				dead = append(dead, docs[i*len(docs)/tombstones].Name)
			}
			if n, err := env.Engine.DeleteBatch(dead); err != nil || n != tombstones {
				b.Fatalf("DeleteBatch = %d, %v; want %d", n, err, tombstones)
			}
			reqs := make([]SearchRequest, len(env.Queries))
			for i, q := range env.Queries {
				reqs[i] = SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10}
			}
			ctx := context.Background()
			for _, req := range reqs { // warm
				if _, err := env.Engine.Do(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.Engine.Do(ctx, reqs[i%len(reqs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
