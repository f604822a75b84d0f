package search

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/index"
)

// The parity harness. Every evaluator of this package ranks exactly as
// OracleRank, the exhaustive one-document-at-a-time reference, ranks the
// documents the evaluator holds live: the same documents, in the same
// order, with the same float64 score bits. The SQE_C splice copies ranks
// verbatim from three such rankings, so every reproduced table rests on
// it. It is stated here once: parityRows lists the configurations —
// corpus, shape, model, pruning mode, trees, k — and TestParity diffs
// every tree of one Evaluate, plain and (several trees) with
// EvalOptions.Backfill, against the oracle, then holds each evaluation's
// counters to the accounting identities. Root TestDifferential states the invariant one
// layer up, for whole engine requests.

// ---- corpora ----

// testDoc is one named document of a test corpus.
type testDoc struct{ name, text string }

// textsOf names raw texts D0, D1, … as a corpus.
func textsOf(texts ...string) []testDoc {
	docs := make([]testDoc, len(texts))
	for i, text := range texts {
		docs[i] = testDoc{name: fmt.Sprintf("D%d", i), text: text}
	}
	return docs
}

// skewedDocs is n documents named D00000, D00001, … over a skewed
// vocabulary: "a" in nearly every document, "b" and "c" common, "z"
// rare, lengths 2 to 32. Pruning has real opportunities even at small
// scale, and the longest postings span several blocks.
func skewedDocs(n, seed int) []testDoc {
	rng := rand.New(rand.NewSource(int64(seed)))
	vocab := []string{"a", "a", "a", "a", "b", "b", "c", "c", "d", "e", "f", "g"}
	docs := make([]testDoc, n)
	for d := range docs {
		var sb strings.Builder
		for i, l := 0, 2+rng.Intn(30); i < l; i++ {
			sb.WriteString(vocab[rng.Intn(len(vocab))] + " ")
		}
		if rng.Intn(17) == 0 {
			sb.WriteString("z ")
		}
		docs[d] = testDoc{name: fmt.Sprintf("D%05d", d), text: sb.String()}
	}
	return docs
}

// monoSearcher is a Searcher over the monolithic in-memory index of
// docs, in order.
func monoSearcher(docs []testDoc) *Searcher {
	b := index.NewBuilder(analysis.Analyzer{})
	for _, d := range docs {
		b.Add(d.name, d.text)
	}
	return NewSearcher(b.Build())
}

// skewedIndex is the monolithic index of skewedDocs(n, seed).
func skewedIndex(n, seed int) *index.Index { return monoSearcher(skewedDocs(n, seed)).Index() }

// parityCorpora are the table's named corpora: crafted ones for exact
// ties (duplicated documents), document lengths (one term at many
// frequencies) and a tiny mix, and skewed ones at three sizes.
var parityCorpora = map[string]func() []testDoc{
	"tiny":       func() []testDoc { return textsOf("a b c", "a a b", "b c d", "a", "c d z", "a b c d z") },
	"ties":       func() []testDoc { return textsOf("a b", "a b", "a b", "a b", "b c", "b c", "z") },
	"lengths":    func() []testDoc { return textsOf("a", "a a a a a a a a a a a a", "a b", "b", "z a") },
	"skewed-120": func() []testDoc { return skewedDocs(120, 11) },
	"skewed-400": func() []testDoc { return skewedDocs(400, 5) },
	"skewed-650": func() []testDoc { return skewedDocs(650, 41) },
}

// ---- queries ----

// parityQuery is the trees of one Evaluate.
type parityQuery struct {
	name  string
	trees []Node
}

// singleTrees is the query set's one-tree half: every leaf kind, narrow
// and wide windows, out-of-vocabulary leaves alone and beside matches, a
// repeated term, nested, zero and skewed weights, and an expanded query
// long enough for the cost model to prune.
func singleTrees() []parityQuery {
	a, b, c, d, z := Term{Text: "a"}, Term{Text: "b"}, Term{Text: "c"}, Term{Text: "d"}, Term{Text: "z"}
	oov := Term{Text: "nosuchterm"}
	return []parityQuery{
		{"single", []Node{a}},
		{"rare", []Node{z}},
		{"oov", []Node{oov}},
		{"all-oov", []Node{Combine(oov, Term{Text: "ww"})}},
		{"two", []Node{Combine(a, b)}},
		{"many", []Node{Combine(a, b, c, z)}},
		{"with-oov", []Node{Combine(a, oov)}},
		{"dup-term", []Node{Combine(a, a)}},
		{"phrase", []Node{Phrase{Terms: []string{"a", "b"}}}},
		{"window", []Node{Unordered{Terms: []string{"b", "c"}, Width: 8}}},
		{"narrow-window", []Node{Unordered{Terms: []string{"c", "d"}, Width: 3}}},
		{"weighted", []Node{Weight([]float64{0.7, 0.2, 0.1}, []Node{a, b, Phrase{Terms: []string{"a", "c"}}})}},
		{"skew-weight", []Node{Weight([]float64{0.99, 0.01}, []Node{z, a})}},
		{"nested", []Node{Weight([]float64{3, 1}, []Node{Combine(a, d), Phrase{Terms: []string{"b", "c"}}})}},
		{"zero-weight", []Node{Weight([]float64{0, 2}, []Node{a, c})}},
		{"expanded", []Node{Combine(z, a, b, c, d, Term{Text: "e"}, Term{Text: "f"}, Term{Text: "g"},
			Phrase{Terms: []string{"a", "b"}}, Unordered{Terms: []string{"b", "c"}, Width: 8})}},
	}
}

// runTrees is an SQE_C-shaped triple over skewedDocs' vocabulary: the
// runs share terms and a phrase under different weights, the second
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

// runWeights are the runTrees weights the table and the kept tests use.
var runWeights = [4]float64{0.6, 0.3, 0.1, 0.25}

// runQueries is the query set's several-tree half: the runTrees triple
// whole and with each run empty, and every single tree in one Evaluate.
func runQueries() []parityQuery {
	var qs []parityQuery
	for empty := -1; empty < 3; empty++ {
		qs = append(qs, parityQuery{fmt.Sprintf("runs-empty%d", empty), runTrees(runWeights, empty)})
	}
	var all []Node
	for _, q := range singleTrees() {
		all = append(all, q.trees...)
	}
	return append(qs, parityQuery{"all-trees", all})
}

// ---- models and modes ----

// parityModel is the retrieval model at one μ.
type parityModel struct {
	name string
	mu   float64
}

// parityModels is the model matrix: Dirichlet at the default μ and at a
// small one.
var parityModels = []parityModel{
	{"dirichlet", DefaultMu},
	{"dirichlet-small-mu", 50},
}

// The pruning modes: the cost model's choice (a lone run prunes when
// pruneWorthwhile predicts it pays, several runs always prune), pruning
// forced on every run, and pruning off. forcePrune does not
// cross the wire: under it a shard server applies its cost model.
const (
	costModel = "cost-model"
	forced    = "forced"
	unpruned  = "unpruned"
)

var allModes = []string{costModel, forced, unpruned}

// configure sets co's μ and pruning mode.
func configure(co *coordinator, m parityModel, mode string) {
	co.Configure(ShardConfig{Mu: m.mu, DisablePruning: mode == unpruned})
	co.forcePrune = mode == forced
}

// ---- shapes ----

// subject is one evaluator over a corpus: the searcher, the coordinator
// it embeds (for the pruning switches), the documents it holds live,
// which the oracle ranks, and the indexes its partitions hold, dead
// documents included, whose postings it walks. perTree marks shard
// servers, which evaluate each tree of a request on its own.
type subject struct {
	d       Distributed
	co      *coordinator
	live    []testDoc
	held    []*index.Index
	perTree bool
}

// A shape arranges a corpus one way and returns the evaluator over it.
type shape func(t *testing.T, docs []testDoc) subject

// whole is the index in memory or, with bs set, as an mmap'd FormatV2
// file at block size bs: its term leaves stream through block cursors,
// and tiny blocks maximise the block edges their gallops land on, skip
// across and resume from.
func whole(bs int) shape {
	return func(t *testing.T, docs []testDoc) subject {
		mem := monoSearcher(docs).Index()
		s := NewSearcher(mem)
		if bs > 0 {
			s = NewSearcher(v2Copy(t, mem, bs))
		}
		return subject{s, &s.coordinator, docs, []*index.Index{mem}, false}
	}
}

// shards is n round-robin shards of whole(bs)'s index.
func shards(n, bs int) shape {
	return func(t *testing.T, docs []testDoc) subject {
		sub := whole(bs)(t, docs)
		ss := NewShardedSearcher(index.NewSharded(sub.d.(*Searcher).ix, n))
		return subject{ss, &ss.coordinator, docs, sub.held, false}
	}
}

// remote is n shard servers on loopback behind the RPC coordinator.
func remote(n int) shape {
	return func(t *testing.T, docs []testDoc) subject {
		mem := monoSearcher(docs).Index()
		rs, _ := bootRemote(t, mem, n)
		return subject{rs, &rs.coordinator, docs, []*index.Index{mem}, true}
	}
}

// segments streams the corpus into a live index flushing every
// flushDocs documents, commits the rest if flush is set, deletes what
// dead names in one batch, and compacts if compact is set.
func segments(flushDocs int, flush, compact bool, dead func(docs []testDoc) []string) shape {
	return func(t *testing.T, docs []testDoc) subject {
		live := buildSegmented(t, docs, flushDocs, nil)
		if flush {
			if err := live.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		var deletes []string
		if dead != nil {
			deletes = dead(docs)
		}
		// One batch: every tombstone lands in one snapshot, after every
		// segment of the shape exists.
		if n, err := live.DeleteBatch(deletes); err != nil || n != len(deletes) {
			t.Fatalf("DeleteBatch = %d, %v; want %d", n, err, len(deletes))
		}
		if compact {
			if err := live.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		gs := NewSegmentedSearcher(live)
		sn := live.Acquire()
		t.Cleanup(sn.Release)
		held := make([]*index.Index, sn.NumSegments())
		for i := range held {
			held[i] = sn.Segment(i)
		}
		return subject{gs, &gs.coordinator, survivorsOf(docs, deletes), held, false}
	}
}

// tombstoned is live segments of a quarter of the corpus each with every
// fifth document deleted.
func tombstoned() shape {
	return func(t *testing.T, docs []testDoc) subject {
		return segments(max(2, len(docs)/4), false, false, func(docs []testDoc) (names []string) {
			for i := 2; i < len(docs); i += 5 {
				names = append(names, docs[i].name)
			}
			return names
		})(t, docs)
	}
}

// postingNames names the documents of term's postings from from to to.
func postingNames(term string, from, to int) func([]testDoc) []string {
	return func(docs []testDoc) (names []string) {
		p := monoSearcher(docs).Index().PostingsFor(term)
		for _, d := range p.Docs[from:min(to, len(p.Docs))] {
			names = append(names, docs[d].name)
		}
		return names
	}
}

// ---- the table ----

// parityRow is one configuration: a shape over a corpus, evaluated
// under each model and mode for each query at each k.
type parityRow struct {
	shape   string
	build   shape
	corpus  string
	docs    []testDoc
	queries []parityQuery
	models  []parityModel
	modes   []string
	ks      []int
}

// parityRows lists the configurations. Rows name the combinations worth
// their time, not the cross product of the axes.
func parityRows() []parityRow {
	var rows []parityRow
	both := append(singleTrees(), runQueries()...)
	row := func(name string, build shape, corpus string, queries []parityQuery, models []parityModel, modes []string, ks ...int) {
		rows = append(rows, parityRow{name, build, corpus, parityCorpora[corpus](), queries, models, modes, ks})
	}
	// Every tree kind, model, mode and cut on one index, in memory and
	// as a v2 file at block size 4, in two shards of each, on two shard
	// servers and in tombstoned segments.
	for _, s := range []struct {
		name    string
		build   shape
		corpora []string
	}{
		{"mono", whole(0), []string{"tiny", "ties", "lengths", "skewed-400"}},
		{"v2-bs4", whole(4), []string{"ties", "lengths", "skewed-400"}},
		{"shards-2", shards(2, 0), []string{"ties", "lengths", "skewed-400"}},
		{"shards-2-bs4", shards(2, 4), []string{"ties", "skewed-400"}},
		{"remote-2", remote(2), []string{"ties", "skewed-400"}},
		{"segments-tombstoned", tombstoned(), []string{"ties", "skewed-400"}},
	} {
		for _, c := range s.corpora {
			row(s.name, s.build, c, both, parityModels, allModes, 1, 3, 10, 1000)
		}
	}
	// Block edges: the pruned pass over v2 files at the other tiny block
	// sizes.
	for _, bs := range []int{1, 2, 16} {
		for _, c := range []string{"ties", "lengths", "skewed-400"} {
			row(fmt.Sprintf("v2-bs%d", bs), whole(bs), c, singleTrees(), parityModels, []string{forced}, 1, 3, 10)
		}
	}
	// Round-robin shards at every count: odd counts, more shards than
	// some postings have documents, and exact ties straddling shard
	// boundaries, which the global-DocID tie rule must order; and the
	// pruned pass over shards of a v2 file at block size 4.
	for _, n := range []int{1, 3, 4, 8} {
		row(fmt.Sprintf("shards-%d", n), shards(n, 0), "ties", singleTrees(), parityModels, []string{costModel}, 1, 3, 10, 1000)
		row(fmt.Sprintf("shards-%d", n), shards(n, 0), "skewed-400", singleTrees(), parityModels, []string{costModel}, 1, 3, 10)
		row(fmt.Sprintf("shards-%d-bs4", n), shards(n, 4), "skewed-400", singleTrees(), parityModels, []string{forced}, 10)
	}
	// Live segments by flush size (many small segments, a few, the
	// sealed buffer alone), with and without deletes, before and after
	// compaction.
	for _, flush := range []int{7, 35, 1000} {
		for _, compact := range []bool{false, true} {
			name := fmt.Sprintf("segments-flush%d", flush)
			if compact {
				name += "-compacted"
			}
			row(name, segments(flush, false, compact, nil), "skewed-120", singleTrees(), parityModels, []string{forced, unpruned}, 10)
			// Tombstones in the first, a middle and the last segment.
			dead := func([]testDoc) []string { return []string{"D00000", "D00007", "D00031", "D00064", "D00119"} }
			row(name+"-deleted", segments(flush, false, compact, dead), "skewed-120", singleTrees(), parityModels, []string{forced, unpruned}, 10)
		}
	}
	// Tombstones placed where a candidate-time filter or an incremental
	// statistics correction could go wrong, on each kind of segment a
	// snapshot can hold: one mmap'd v2 file, the memory-backed sealed
	// buffer, and two v2 files beside a 50-document buffer.
	for _, p := range []struct {
		name string
		dead func([]testDoc) []string
	}{
		// The best document of every single tree: the heap fills from
		// rank 2 down, θ set by live documents only.
		{"rank1", func(docs []testDoc) (names []string) {
			full := monoSearcher(docs)
			for _, q := range singleTrees() {
				if res := OracleRank(full, q.trees[0], 1); len(res) == 1 && !slices.Contains(names, res[0].Name) {
					names = append(names, res[0].Name)
				}
			}
			return names
		}},
		// One 128-posting block of the longest list: a whole decode
		// unit the merge walks offers nothing.
		{"whole-block", postingNames("a", 128, 256)},
		// Every match of one leaf: its cf corrects to zero and the
		// out-of-vocabulary floor applies.
		{"leaf-to-zero", postingNames("z", 0, 650)},
		// One survivor in the mixed shape's first segment: nearly every
		// candidate the merge produces there is dead, and k = 1000
		// exceeds the live matches.
		{"all-but-one", func(docs []testDoc) (names []string) {
			for _, d := range docs[:300] {
				if d != docs[7] {
					names = append(names, d.name)
				}
			}
			return names
		}},
	} {
		for _, s := range []struct {
			name      string
			flushDocs int
			flush     bool
		}{{"v2", 5000, true}, {"buffer", 5000, false}, {"mixed", 300, false}} {
			row("tombstones-"+p.name+"-"+s.name, segments(s.flushDocs, s.flush, false, p.dead), "skewed-650", singleTrees(), parityModels, allModes, 1, 10, 1000)
		}
	}
	// Random corpora by seed, one random tree each: weighted terms,
	// phrases, windows and out-of-vocabulary leaves over a few documents,
	// and weighted terms over a few hundred.
	for seed := 0; seed < 40; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		for _, kind := range []string{"positional", "terms"} {
			n, k := 2+rng.Intn(30), 1+rng.Intn(35)
			if kind == "terms" {
				n, k = 50+rng.Intn(250), 1+rng.Intn(30)
			}
			rows = append(rows, parityRow{"mono", whole(0), fmt.Sprintf("random-%s-%d", kind, seed), skewedDocs(n, seed),
				[]parityQuery{{"random", []Node{randomTree(rng, kind == "positional")}}},
				[]parityModel{parityModels[rng.Intn(len(parityModels))]}, allModes, []int{k}})
		}
	}
	return rows
}

// randomTree is a random weighted tree of one to six leaves over
// skewedDocs' vocabulary: terms, out-of-vocabulary terms, phrases and
// windows under integer weights when positional, else terms under
// fractional ones.
func randomTree(rng *rand.Rand, positional bool) Node {
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "z"}
	word := func() string { return vocab[rng.Intn(len(vocab))] }
	var children []Child
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		if !positional {
			children = append(children, Child{Weight: 0.05 + rng.Float64(), Node: Term{Text: word()}})
			continue
		}
		leaf := []Node{Term{Text: word()}, Term{Text: "nosuchterm"}, Phrase{Terms: []string{word(), word()}},
			Unordered{Terms: []string{word(), word()}, Width: 2 + rng.Intn(4)}}[rng.Intn(4)]
		children = append(children, Child{Weight: float64(1 + rng.Intn(5)), Node: leaf})
	}
	return Weighted{Children: children}
}

// ---- the checks ----

// sameResults demands exact equality — the same documents, names and
// score bits, in the same order — which is the parity contract.
func sameResults(t testing.TB, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: got (%d,%q,%.17g) != want (%d,%q,%.17g)",
				label, i, got[i].Doc, got[i].Name, got[i].Score,
				want[i].Doc, want[i].Name, want[i].Score)
		}
	}
}

// diffTrees evaluates trees in one Evaluate on d, with statistics, and
// diffs each ranking against the top k of want, that tree's full oracle
// ranking. It evaluates several trees again with the last as a backfill
// tree (Evaluate ignores the mark on one): the others rank as before, and
// the last either ranks as before or is dropped — nil, beside k
// documents of the tree before it. It returns the first evaluation's
// statistics and whether the second dropped.
func diffTrees(t *testing.T, label string, d Distributed, trees []Node, want [][]Result, k int) (st SearchStats, dropped bool) {
	t.Helper()
	for _, backfill := range []bool{false, true} {
		if backfill && len(trees) < 2 {
			break
		}
		ev, err := d.Evaluate(context.Background(), trees, k, EvalOptions{Backfill: backfill, CollectStats: !backfill})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(ev.Results) != len(trees) {
			t.Fatalf("%s: %d rankings for %d trees", label, len(ev.Results), len(trees))
		}
		if ev.BackfillDropped && !backfill {
			t.Fatalf("%s: %d trees without a backfill mark, the last dropped", label, len(trees))
		}
		for r := range trees {
			if r == len(trees)-1 && ev.BackfillDropped {
				if ev.Results[r] != nil || len(ev.Results[r-1]) != k {
					t.Fatalf("%s: the backfill run dropped with %d results beside %d of the run before", label, len(ev.Results[r]), len(ev.Results[r-1]))
				}
				dropped = true
				continue
			}
			sameResults(t, fmt.Sprintf("%s backfill=%v tree %d", label, backfill, r), ev.Results[r], want[r][:min(k, len(want[r]))])
		}
		if !backfill {
			st = ev.Stats
		}
	}
	return st, dropped
}

// unionMass is the postings mass of the distinct leaves of trees over
// the indexes held, counted through Explain: each document adds one per
// distinct leaf it matches, so a leaf repeated within or across trees
// counts once — within a tree only, perTree, as a shard server walks
// them.
func unionMass(held []*index.Index, trees []Node, perTree bool) int64 {
	var mass int64
	for _, ix := range held {
		s := NewSearcher(ix)
		for d := 0; d < ix.NumDocs(); d++ {
			seen := map[string]bool{}
			for _, q := range trees {
				if perTree {
					clear(seen)
				}
				for _, l := range s.Explain(q, index.DocID(d)).Leaves {
					// #1(t) is t's own row, one leaf with t.
					name := l.Leaf
					if t, ok := strings.CutPrefix(name, "#1("); ok && !strings.Contains(t, " ") {
						name = strings.TrimSuffix(t, ")")
					}
					if l.TF > 0 && !seen[name] {
						seen[name] = true
						mass++
					}
				}
			}
		}
	}
	return mass
}

// checkCounters holds one query's evaluations at one k, one per mode, to
// the accounting identities: every posting of the query's distinct
// leaves is advanced or skipped exactly once; the exhaustive mode skips
// nothing and tests no bound; pruning never examines a candidate the
// exhaustive mode does not; the heap sees the same accepted sequence in
// every mode; and the per-partition skips sum to the total.
func checkCounters(t *testing.T, label string, modes []string, stats []SearchStats, mass int64) {
	t.Helper()
	for i, st := range stats {
		l := label + " " + modes[i]
		if st.PostingsAdvanced+st.DocsSkipped != mass {
			t.Errorf("%s: advanced %d + skipped %d != union postings mass %d", l, st.PostingsAdvanced, st.DocsSkipped, mass)
		}
		if modes[i] == unpruned && (st.DocsSkipped != 0 || st.BoundEvaluations != 0) {
			t.Errorf("%s: an exhaustive evaluation reported pruning work: %v", l, st)
		}
		if st.HeapPushes != stats[0].HeapPushes || st.HeapEvictions != stats[0].HeapEvictions {
			t.Errorf("%s: heap traffic (%d,%d) != %s's (%d,%d)", l, st.HeapPushes, st.HeapEvictions,
				modes[0], stats[0].HeapPushes, stats[0].HeapEvictions)
		}
		if u := slices.Index(modes, unpruned); u >= 0 && st.CandidatesExamined > stats[u].CandidatesExamined {
			t.Errorf("%s: %d candidates, the exhaustive mode %d", l, st.CandidatesExamined, stats[u].CandidatesExamined)
		}
		var skipped int64
		for _, sh := range st.Shards {
			skipped += sh.DocsSkipped
		}
		if len(st.Shards) > 0 && skipped != st.DocsSkipped {
			t.Errorf("%s: per-partition skips %d != total %d", l, skipped, st.DocsSkipped)
		}
	}
}

// oracle memoises the oracle's full rankings by the documents ranked,
// the model and the tree, and the union postings masses by the
// documents held and the trees, so rows over the same documents share
// them.
type oracle struct{ refs, ranked, masses sync.Map }

// rankings returns each query's trees' full rankings of live under m.
func (o *oracle) rankings(corpus string, live []testDoc, m parityModel, queries []parityQuery) [][][]Result {
	h := fnv.New64a()
	fmt.Fprint(h, corpus, live, m)
	docs := fmt.Sprint(h.Sum64())
	ref, ok := o.refs.Load(docs)
	if !ok {
		s := monoSearcher(live)
		s.Mu = m.mu
		ref, _ = o.refs.LoadOrStore(docs, s)
	}
	out := make([][][]Result, len(queries))
	for qi, q := range queries {
		for _, tree := range q.trees {
			want, ok := o.ranked.Load(docs + tree.String())
			if !ok {
				want, _ = o.ranked.LoadOrStore(docs+tree.String(), OracleRank(ref.(*Searcher), tree, len(live)))
			}
			out[qi] = append(out[qi], want.([]Result))
		}
	}
	return out
}

// mass is the union postings mass of q's trees over sub's held
// documents.
func (o *oracle) mass(corpus string, sub subject, q parityQuery) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, corpus, sub.perTree, q.trees)
	for _, ix := range sub.held {
		for d := range ix.NumDocs() {
			fmt.Fprint(h, ix.DocName(index.DocID(d)), "|")
		}
	}
	if m, ok := o.masses.Load(h.Sum64()); ok {
		return m.(int64)
	}
	m := unionMass(sub.held, q.trees, sub.perTree)
	o.masses.Store(h.Sum64(), m)
	return m
}

// evidence is what the table as a whole must show it exercised: the
// postings skipped per shape kind, the blocks the forced v2 rows decoded
// of those their streamed terms hold, the candidates the v2-bs4 row over
// skewed-400 examined below k = 1000 forced and unpruned, and the
// evaluations that dropped their backfill run.
type evidence struct {
	mu                 sync.Mutex
	rows, drops        int
	skipped            map[string]int64
	decoded, blocks    int64
	pruned, exhaustive int64
}

// note adds one evaluation of row r to the evidence.
func (ev *evidence) note(r parityRow, mode string, k int, st SearchStats, dropped bool) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	kind, _, _ := strings.Cut(r.shape, "-")
	ev.skipped[kind] += st.DocsSkipped
	if dropped {
		ev.drops++
	}
	if kind == "v2" && mode == forced {
		ev.decoded += st.BlocksDecoded
		ev.blocks += st.BlocksTotal
	}
	if r.shape == "v2-bs4" && r.corpus == "skewed-400" && k < 1000 {
		switch mode {
		case forced:
			ev.pruned += st.CandidatesExamined
		case unpruned:
			ev.exhaustive += st.CandidatesExamined
		}
	}
}

// check asserts the evidence floors, if every one of the table's rows
// ran.
func (ev *evidence) check(t *testing.T, rows int) {
	if ev.rows < rows {
		t.Logf("%d of %d rows ran: the evidence floors apply to the whole table", ev.rows, rows)
		return
	}
	for _, kind := range []string{"mono", "v2", "shards", "remote", "segments", "tombstones"} {
		if ev.skipped[kind] == 0 {
			t.Errorf("no %s row skipped a posting", kind)
		}
	}
	if ev.decoded == 0 || ev.decoded >= ev.blocks {
		t.Errorf("the v2 rows decoded %d of %d blocks: skipping saved no decode", ev.decoded, ev.blocks)
	}
	if ev.exhaustive < 2*ev.pruned {
		t.Errorf("pruning over the v2 file examined %d candidates against %d exhaustive: less than the 2x floor", ev.pruned, ev.exhaustive)
	}
	if ev.drops == 0 {
		t.Error("no evaluation dropped its backfill run")
	}
}

// TestParity runs every row of parityRows, in parallel, then checks the
// evidence floors.
func TestParity(t *testing.T) {
	rows := parityRows()
	o := &oracle{}
	ev := &evidence{skipped: map[string]int64{}}
	t.Cleanup(func() { ev.check(t, len(rows)) })
	for _, r := range rows {
		t.Run(r.shape+"/"+r.corpus, func(t *testing.T) {
			t.Parallel()
			r.run(t, o, ev)
		})
	}
}

// run evaluates every query of r under each model, mode and k, diffs
// the rankings and checks the counters.
func (r parityRow) run(t *testing.T, o *oracle, ev *evidence) {
	sub := r.build(t, r.docs)
	for _, m := range r.models {
		want := o.rankings(r.corpus, sub.live, m, r.queries)
		for qi, q := range r.queries {
			mass := o.mass(r.corpus, sub, q)
			for _, k := range r.ks {
				stats := make([]SearchStats, len(r.modes))
				for i, mode := range r.modes {
					configure(sub.co, m, mode)
					var dropped bool
					stats[i], dropped = diffTrees(t, fmt.Sprintf("%s/%s/%s k=%d", m.name, mode, q.name, k), sub.d, q.trees, want[qi], k)
					ev.note(r, mode, k, stats[i], dropped)
				}
				checkCounters(t, fmt.Sprintf("%s/%s k=%d", m.name, q.name, k), r.modes, stats, mass)
			}
		}
	}
	ev.mu.Lock()
	ev.rows++
	ev.mu.Unlock()
}

// ---- building blocks the other tests share ----

// v2Copy rounds mem through a FormatV2 file at block size bs (the decode
// granularity of streaming cursors over it) and returns the mmap'd
// index, whose term leaves stream. The test fails if a lazy decode
// recorded an error by the time it ends.
func v2Copy(t *testing.T, mem *index.Index, bs int) *index.Index {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := mem.SetBlockSize(bs); err != nil {
		t.Fatal(err)
	}
	if err := index.WriteFile(path, mem, index.FormatV2); err != nil {
		t.Fatal(err)
	}
	disk, err := index.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := disk.Err(); err != nil {
			t.Errorf("lazy decode recorded an error: %v", err)
		}
		disk.Close()
	})
	return disk
}

// buildSegmented ingests docs into a fresh Segmented with the given
// flush threshold and deletes the named docs one batch each.
func buildSegmented(t *testing.T, docs []testDoc, flushDocs int, deletes []string) *index.Segmented {
	t.Helper()
	live, err := index.OpenSegmented(t.TempDir(), analysis.Analyzer{}, index.WithFlushDocs(flushDocs))
	if err != nil {
		t.Fatalf("OpenSegmented: %v", err)
	}
	t.Cleanup(func() { live.Close() })
	for _, d := range docs {
		if err := live.Ingest(d.name, d.text); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	for _, name := range deletes {
		if _, err := live.DeleteBatch([]string{name}); err != nil {
			t.Fatalf("Delete(%s): %v", name, err)
		}
	}
	return live
}

// survivorsOf filters docs by the deleted-name set.
func survivorsOf(docs []testDoc, deletes []string) []testDoc {
	return slices.DeleteFunc(slices.Clone(docs), func(d testDoc) bool { return slices.Contains(deletes, d.name) })
}

// rank is d.Evaluate with no options, for tests that only rank.
func rank(t testing.TB, d Distributed, q Node, k int) []Result {
	t.Helper()
	res, _, err := evalOne(context.Background(), d, q, k, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rankStats is rank with CollectStats: the ranking and its counters.
func rankStats(t testing.TB, d Distributed, q Node, k int) ([]Result, SearchStats) {
	t.Helper()
	res, ev, err := evalOne(context.Background(), d, q, k, EvalOptions{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	return res, ev.Stats
}
