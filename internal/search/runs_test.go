package search

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/index"
)

// runTrees is an SQE_C-shaped triple over buildSkewedIndex's vocabulary:
// the runs share terms and a phrase under different weights, the second
// holds an out-of-vocabulary term, the third holds one leaf twice (once
// as a term, once as a one-term phrase) and a window. empty in [0, 3)
// replaces that run with a tree that flattens to no leaves.
func runTrees(w [4]float64, empty int) []Node {
	trees := []Node{
		Weight([]float64{w[0], w[1], w[2]}, []Node{
			Term{Text: "a"}, Phrase{Terms: []string{"a", "b"}}, Term{Text: "z"},
		}),
		Weight([]float64{w[0], w[1], w[2], w[3], 1}, []Node{
			Term{Text: "a"}, Phrase{Terms: []string{"a", "b"}}, Term{Text: "z"},
			Unordered{Terms: []string{"b", "c"}, Width: 8}, Term{Text: "nosuchterm"},
		}),
		Weight([]float64{w[3], 1, w[1], w[2]}, []Node{
			Unordered{Terms: []string{"b", "c"}, Width: 8}, Term{Text: "a"},
			Phrase{Terms: []string{"a"}}, Term{Text: "c"},
		}),
	}
	if empty >= 0 && empty < len(trees) {
		trees[empty] = Weighted{}
	}
	return trees
}

// runsShape is one evaluator the one-evaluation tests drive: a searcher
// over a corpus, its coordinator (for the pruning switches), and the
// monolithic reference over the documents it holds live.
type runsShape struct {
	name string
	d    Distributed
	co   *coordinator
	ref  *Searcher
}

// runsShapeNames are the shapes runsShapes builds, in order.
var runsShapeNames = []string{"mono", "shards-2", "segments-tombstoned", "remote-2"}

// runsShapes builds the named shapes over docs: the whole index, two
// in-process shards, live segments of a few documents each with every
// fifth document deleted, and two shard servers on loopback. ix, when
// non-nil, replaces the index built from docs for the mono and sharded
// shapes (a v2 copy at a tiny block size).
func runsShapes(t *testing.T, docs []segTestDoc, ix *index.Index, names ...string) []runsShape {
	t.Helper()
	full := monoSearcher(docs)
	if ix == nil {
		ix = full.Index()
	}
	var out []runsShape
	for _, name := range names {
		switch name {
		case "mono":
			s := NewSearcher(ix)
			out = append(out, runsShape{name, s, &s.coordinator, full})
		case "shards-2":
			ss := NewShardedSearcher(index.NewSharded(ix, 2))
			out = append(out, runsShape{name, ss, &ss.coordinator, full})
		case "segments-tombstoned":
			var deletes []string
			for i := 2; i < len(docs); i += 5 {
				deletes = append(deletes, docs[i].name)
			}
			gs := NewSegmentedSearcher(buildSegmented(t, docs, max(2, len(docs)/4), deletes, false))
			out = append(out, runsShape{name, gs, &gs.coordinator, monoSearcher(survivorsOf(docs, deletes))})
		case "remote-2":
			rs, _ := bootRemote(t, ix, 2)
			out = append(out, runsShape{name, rs, &rs.coordinator, full})
		default:
			t.Fatalf("unknown shape %q", name)
		}
	}
	return out
}

// configure sets the shape's model on both sides and its pruning mode:
// forced (every run prunes; a shard server applies its cost model to a
// lone run), default (a several-run pass prunes every run either way)
// or unpruned.
func (sh runsShape) configure(model Model, params ModelParams, mode string) {
	sh.co.Configure(ShardConfig{Model: model, Params: params, DisablePruning: mode == "unpruned"})
	sh.co.forcePrune = mode == "forced"
	sh.ref.Model, sh.ref.Params = model, params
}

var runsModes = []string{"forced", "default", "unpruned"}

// assertRunsMatchSeparate evaluates trees in one Evaluate on d and diffs
// each ranking against the oracle's ranking of that tree alone; want
// holds each tree's full oracle ranking, of which the top k is a prefix.
// It evaluates them again with the last as a backfill tree: the others
// rank as before, and the last either ranks as before or is dropped —
// nil, beside k documents of the tree before it. It reports the drop.
func assertRunsMatchSeparate(t *testing.T, label string, d Distributed, trees []Node, want [][]Result, k int) (dropped bool) {
	t.Helper()
	for _, backfill := range []bool{false, true} {
		ev, err := d.Evaluate(context.Background(), trees, k, EvalOptions{Backfill: backfill})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(ev.Results) != len(trees) {
			t.Fatalf("%s: %d rankings for %d trees", label, len(ev.Results), len(trees))
		}
		if ev.BackfillDropped && (!backfill || len(trees) < 2) {
			t.Fatalf("%s backfill=%v: %d trees, the last dropped", label, backfill, len(trees))
		}
		for r := range trees {
			if r == len(trees)-1 && ev.BackfillDropped {
				if ev.Results[r] != nil || len(ev.Results[r-1]) != k {
					t.Fatalf("%s: the backfill run dropped with %d results beside %d of the run before", label, len(ev.Results[r]), len(ev.Results[r-1]))
				}
				dropped = true
				continue
			}
			assertIdenticalResults(t, fmt.Sprintf("%s backfill=%v run %d", label, backfill, r), ev.Results[r], want[r][:min(k, len(want[r]))])
		}
	}
	return dropped
}

// oracleRankings is each tree's full ranking by the oracle under ref's
// model.
func oracleRankings(ref *Searcher, trees []Node) [][]Result {
	out := make([][]Result, len(trees))
	for r, q := range trees {
		out[r] = OracleRank(ref, q, ref.Index().NumDocs())
	}
	return out
}

// textsOf names raw texts D0, D1, … as a corpus.
func textsOf(texts ...string) []segTestDoc {
	docs := make([]segTestDoc, len(texts))
	for i, text := range texts {
		docs[i] = segTestDoc{name: fmt.Sprintf("D%d", i), text: text}
	}
	return docs
}

// TestSearchRunsMatchesSeparate: every tree of one evaluation is
// bit-identical to the oracle's ranking of that tree alone — on a whole
// index, two shards, tombstoned live segments and two shard servers;
// over crafted ties and lengths, a skewed corpus, their v2 files at a
// tiny block size, every model, every pruning mode, shallow and deep
// cuts. The last leg evaluates every pruning query at once: eleven
// trees, one evaluation.
func TestSearchRunsMatchesSeparate(t *testing.T) {
	type corpus struct {
		docs   []segTestDoc
		v2     bool
		shapes []string
	}
	corpora := map[string]corpus{
		"ties":    {docs: textsOf("a b", "a b", "a b", "a b", "b c", "b c", "z"), shapes: runsShapeNames},
		"lengths": {docs: textsOf("a", "a a a a a a a a a a a a", "a b", "b", "z a"), shapes: runsShapeNames[:2]},
		"skewed":  {docs: skewedDocs(400, 5), shapes: runsShapeNames},
	}
	for _, name := range []string{"ties", "skewed"} {
		corpora[name+"-v2"] = corpus{docs: corpora[name].docs, v2: true, shapes: runsShapeNames[:2]}
	}
	var all []Node
	for _, q := range pruningQueries() {
		all = append(all, q)
	}
	drops := 0
	for cname, c := range corpora {
		var ix *index.Index
		if c.v2 {
			ix = v2Copy(t, blockSized(t, monoSearcher(c.docs).Index(), 4))
		}
		for _, sh := range runsShapes(t, c.docs, ix, c.shapes...) {
			for _, m := range pruningModels {
				sh.configure(m.model, m.params, "default")
				wantAll := oracleRankings(sh.ref, all)
				var trees [][]Node
				var want [][][]Result
				for empty := -1; empty < 3; empty++ {
					trees = append(trees, runTrees([4]float64{0.6, 0.3, 0.1, 0.25}, empty))
					want = append(want, oracleRankings(sh.ref, trees[len(trees)-1]))
				}
				for _, mode := range runsModes {
					sh.configure(m.model, m.params, mode)
					for _, k := range []int{1, 3, 10, 1000} {
						label := fmt.Sprintf("%s/%s/%s/%s k=%d", cname, sh.name, m.name, mode, k)
						for i := range trees {
							if assertRunsMatchSeparate(t, fmt.Sprintf("%s empty=%d", label, i-1), sh.d, trees[i], want[i], k) {
								drops++
							}
						}
						if assertRunsMatchSeparate(t, label+" all-queries", sh.d, all, wantAll, k) {
							drops++
						}
					}
				}
			}
		}
	}
	if drops == 0 {
		t.Error("no evaluation dropped its backfill run")
	}
}

// TestSearchRunsCounters pins the one pass's accounting: Leaves counts
// the union (a leaf shared by runs, or repeated in one, counts once);
// every union posting is consumed or skipped, so the pruned pass's
// advanced + skipped is the exhaustive pass's advanced; the exhaustive
// pass skips nothing and tests no bound; and the pass scores fewer
// candidates than the three separate pruned evaluations together.
func TestSearchRunsCounters(t *testing.T) {
	docs := skewedDocs(2000, 11)
	trees := runTrees([4]float64{0.6, 0.3, 0.1, 0.25}, -1)
	sh := runsShapes(t, docs, nil, "mono")[0]
	for _, m := range pruningModels {
		stats := func(mode string) SearchStats {
			sh.configure(m.model, m.params, mode)
			ev, err := sh.d.Evaluate(context.Background(), trees, 5, EvalOptions{CollectStats: true})
			if err != nil {
				t.Fatal(err)
			}
			return ev.Stats
		}
		fst := stats("unpruned")
		pst := stats("forced")
		// a, #1(a b), z, #uw8(b c), nosuchterm, c.
		if pst.Leaves != 6 || fst.Leaves != 6 {
			t.Errorf("%s: Leaves = %d / %d, want the union's 6", m.name, pst.Leaves, fst.Leaves)
		}
		if pst.PostingsAdvanced+pst.DocsSkipped != fst.PostingsAdvanced {
			t.Errorf("%s: advanced %d + skipped %d != union postings mass %d",
				m.name, pst.PostingsAdvanced, pst.DocsSkipped, fst.PostingsAdvanced)
		}
		if fst.DocsSkipped != 0 || fst.BoundEvaluations != 0 {
			t.Errorf("%s: the exhaustive pass reported pruning work: %v", m.name, fst)
		}
		var separate int64
		for _, q := range trees {
			_, ev, err := evalOne(context.Background(), sh.d, q, 5, EvalOptions{CollectStats: true})
			if err != nil {
				t.Fatal(err)
			}
			separate += ev.Stats.CandidatesExamined
		}
		if pst.CandidatesExamined >= separate {
			t.Errorf("%s: one pass scored %d candidates, the separate runs %d together", m.name, pst.CandidatesExamined, separate)
		}
	}
}

// TestSearchRunsEdges: k <= 0 and an empty tree list answer without
// evaluating; a cancelled context fails the evaluation.
func TestSearchRunsEdges(t *testing.T) {
	s := NewSearcher(buildSkewedIndex(100, 3))
	trees := runTrees([4]float64{1, 1, 1, 1}, -1)
	ctx := context.Background()
	for _, k := range []int{0, -1} {
		ev, err := s.Evaluate(ctx, trees, k, EvalOptions{})
		if err != nil || len(ev.Results) != len(trees) || ev.Results[0] != nil {
			t.Fatalf("k=%d: %v, %v", k, ev.Results, err)
		}
	}
	if ev, err := s.Evaluate(ctx, nil, 10, EvalOptions{}); err != nil || len(ev.Results) != 0 {
		t.Fatalf("no trees: %v, %v", ev.Results, err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if ev, err := s.Evaluate(cctx, trees, 10, EvalOptions{}); err == nil || ev.Results != nil {
		t.Fatalf("cancelled: %v, %v", ev.Results, err)
	}
}

// FuzzSearchRunsParity fuzzes corpus shape, model, pruning, k, the
// trees' weights, which tree is empty and the evaluator (whole index,
// two shards, tombstoned segments, two shard servers), asserting each
// tree of one evaluation equals the oracle's ranking of that tree
// alone, score bits included. The seed corpus is
// testdata/fuzz/FuzzSearchRunsParity plus one seed per evaluator.
func FuzzSearchRunsParity(f *testing.F) {
	for shape := range runsShapeNames {
		f.Add(int64(7), uint8(90), uint8(5), uint8(shape), uint8(1|2<<1|shape<<3), 0.6, 0.3, 0.1, 0.25)
	}
	f.Fuzz(func(t *testing.T, seed int64, docs, kk, model, flags uint8, w1, w2, w3, w4 float64) {
		if docs == 0 {
			docs = 1
		}
		k := int(kk)
		if k == 0 {
			k = 1
		}
		// flatten drops non-positive weights; clamp into range so the
		// fuzzer explores weights rather than empty trees.
		clamp := func(w float64) float64 {
			if !(w > 1e-6 && w < 1e6) {
				return 1
			}
			return w
		}
		m := pruningModels[int(model)%len(pruningModels)]
		name := runsShapeNames[int(flags>>3)%len(runsShapeNames)]
		sh := runsShapes(t, skewedDocs(int(docs), int(seed)), nil, name)[0]
		mode := "unpruned"
		if flags&1 != 0 {
			mode = "forced"
		}
		sh.configure(m.model, m.params, mode)
		trees := runTrees([4]float64{clamp(w1), clamp(w2), clamp(w3), clamp(w4)}, int(flags>>1)%4)
		assertRunsMatchSeparate(t, m.name+"/"+name, sh.d, trees, oracleRankings(sh.ref, trees), k)
	})
}

// TestSearchRunsOverriddenLeaves: a partition evaluates its leaves under
// the coordinator's global statistics, written over them as
// localPartition.score writes them. Phrases with a constituent outside
// the partition's vocabulary all resolve to one shared empty memo entry
// there, yet carry different global statistics; the loop must score
// each with its own, not merge them into one union leaf. Each shard's
// top k is the oracle's ranking of the whole corpus restricted to that
// shard's documents.
func TestSearchRunsOverriddenLeaves(t *testing.T) {
	b := index.NewBuilder(plain)
	for i := 0; i < 24; i++ {
		text := "x v w filler"
		if i%2 == 1 { // only shard 1 of 2 (odd documents) holds y
			text = "x y w"
			if i%3 == 0 {
				text += " v y w y w"
			}
		}
		b.Add(fmt.Sprintf("D%02d", i), text)
	}
	ix := b.Build()
	sh := index.NewSharded(ix, 2)
	parts := shardPartitions(sh)
	q := Combine(Term{Text: "x"}, Phrase{Terms: []string{"x", "y"}},
		Phrase{Terms: []string{"y", "w"}}, Phrase{Terms: []string{"v", "y"}})
	ctx := context.Background()
	for _, m := range pruningModels {
		mono := NewSearcher(ix)
		mono.Model, mono.Params = m.model, m.params
		want := OracleRank(mono, q, ix.NumDocs())
		params := mono.Params.withDefaults()
		req := &EvalRequest{Model: int(m.model), Mu: params.Mu, Lambda: params.Lambda, K1: params.K1, B: params.B,
			NumDocs: ix.NumDocs(), TotalToks: ix.TotalTokens()}
		calls := make([]partCall, len(parts))
		for i, p := range parts {
			if err := p.stats(ctx, []Node{q}, &calls[i], nil); err != nil {
				t.Fatal(err)
			}
			if req.Overrides == nil {
				req.Overrides = make([]LeafOverride, len(calls[i].leaves))
			}
			for li, l := range calls[i].leaves {
				req.Overrides[li].CF += l.CF
				req.Overrides[li].DF += l.DF
			}
		}
		for li := range req.Overrides {
			o := &req.Overrides[li]
			o.CollProb = index.FloorProb(o.CF, req.TotalToks)
		}
		for i, p := range parts {
			lp := p.(*localPartition)
			leaves := calls[i].flat
			cfg := lp.override(leaves, req)
			var shardWant []Result
			for _, r := range want {
				if int(r.Doc)%len(parts) == i {
					shardWant = append(shardWant, r)
				}
			}
			for _, prune := range []bool{false, true} {
				cfg.forcePrune, cfg.disablePruning = prune, !prune
				for _, k := range []int{3, 100} {
					sc := getScratch()
					got, _, err := searchRuns(ctx, lp.ix, nil, leaves, calls[i].ends, k, cfg, nil, sc, make([][]Result, 1), nil)
					putScratch(sc)
					if err != nil {
						t.Fatal(err)
					}
					for r := range got {
						got[r].Doc = sh.GlobalDoc(i, got[r].Doc)
					}
					label := fmt.Sprintf("%s/shard=%d/prune=%v k=%d", m.name, i, prune, k)
					requireSameResults(t, got, shardWant[:min(k, len(shardWant))], label)
				}
			}
		}
	}
}
