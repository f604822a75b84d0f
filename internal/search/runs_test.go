package search

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/index"
)

// TestSearchRunsCounters pins the one pass's accounting: Leaves counts
// the union (a leaf shared by runs, or repeated in one, counts once);
// every union posting is consumed or skipped, so the pruned pass's
// advanced + skipped is the exhaustive pass's advanced; the exhaustive
// pass skips nothing and tests no bound; and the pass scores fewer
// candidates than the three separate pruned evaluations together.
func TestSearchRunsCounters(t *testing.T) {
	trees := runTrees(runWeights, -1)
	s := NewSearcher(skewedIndex(2000, 11))
	for _, m := range parityModels {
		stats := func(mode string) SearchStats {
			configure(&s.coordinator, m, mode)
			ev, err := s.Evaluate(context.Background(), trees, 5, EvalOptions{CollectStats: true})
			if err != nil {
				t.Fatal(err)
			}
			return ev.Stats
		}
		fst := stats(unpruned)
		pst := stats(forced)
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
			_, ev, err := evalOne(context.Background(), s, q, 5, EvalOptions{CollectStats: true})
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
	s := NewSearcher(skewedIndex(100, 3))
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

// fuzzShapes are the evaluators FuzzSearchRunsParity drives, one per
// partition kind.
var fuzzShapes = []struct {
	name  string
	build shape
}{{"mono", whole(0)}, {"shards-2", shards(2, 0)}, {"segments-tombstoned", tombstoned()}, {"remote-2", remote(2)}}

// FuzzSearchRunsParity fuzzes corpus size, model, pruning, k, the
// trees' weights, how many of the runTrees triple one evaluation holds
// and which is empty, and the evaluator, asserting each tree of one
// evaluation equals the oracle's ranking of that tree alone, score bits
// included (diffTrees). flags packs the switches: bit 0 forces pruning
// (else pruning is off), bits 1–2 name the empty tree (3: none), bits
// 3–4 the shape, and bits 6–7 cut the triple to 3 − n%3 trees, so one
// tree takes the single-run path. The seed corpus is
// testdata/fuzz/FuzzSearchRunsParity, one triple per shape, and one tree
// per shape.
func FuzzSearchRunsParity(f *testing.F) {
	for shape := range fuzzShapes {
		f.Add(int64(7), uint8(90), uint8(5), uint8(shape), uint8(1|2<<1|shape<<3), 0.6, 0.3, 0.1, 0.25)
	}
	const oneTree = 1 | 3<<1 | 2<<6
	f.Add(int64(1), uint8(60), uint8(10), uint8(0), uint8(oneTree|0<<3), 1.0, 1.0, 1.0, 1.0)
	f.Add(int64(2), uint8(200), uint8(1), uint8(1), uint8(oneTree|1<<3), 0.9, 0.05, 0.05, 1.0)
	f.Add(int64(3), uint8(30), uint8(255), uint8(2), uint8(oneTree|2<<3), 0.2, 0.3, 0.5, 1.0)
	f.Add(int64(4), uint8(120), uint8(3), uint8(0), uint8(oneTree|3<<3), 7.5, 0.001, 2.0, 1.0)
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
		m := parityModels[int(model)%len(parityModels)]
		s := fuzzShapes[int(flags>>3)%len(fuzzShapes)]
		sub := s.build(t, skewedDocs(int(docs), int(seed)))
		mode := unpruned
		if flags&1 != 0 {
			mode = forced
		}
		configure(sub.co, m, mode)
		trees := runTrees([4]float64{clamp(w1), clamp(w2), clamp(w3), clamp(w4)}, int(flags>>1)%4)
		trees = trees[:3-int(flags>>6)%3]
		diffTrees(t, m.name+"/"+s.name+"/"+mode, sub.d, trees, (&oracle{}).rankings("", sub.live, m, []parityQuery{{"fuzz", trees}})[0], k)
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
	for _, m := range parityModels {
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
					sameResults(t, label, got, shardWant[:min(k, len(shardWant))])
				}
			}
		}
	}
}
