package sqe

import (
	"context"
	"flag"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/search"
	"repro/internal/search/searchtest"
)

// The index-while-chaos harness (the tentpole's adversarial gate):
// a live segmented index is hammered with ingests, deletes, flushes and
// compactions while injected faults fail disk writes, merges and
// manifest commits — and while concurrent readers pin snapshots and
// diff every query bit-for-bit against the oracle (searchtest.Rank) over
// a monolithic index rebuilt from that snapshot's own surviving
// documents. The writer speaks the differential harness's script type
// (differential_test.go), so what the index must hold once the chaos
// settles comes from the same model. The runs are seeded and replayable:
// every schedule derives from -segchaos.seed, which the test logs.

var segChaosSeed = flag.Int64("segchaos.seed", 20260808, "seed for the index-while-chaos schedules (logged by the tests for replay)")

// chaosVocab is a small skewed vocabulary so postings overlap heavily
// across documents (ties, shared terms, phrase matches).
var chaosVocab = []string{
	"alpha", "alpha", "alpha", "beta", "beta", "gamma", "gamma",
	"delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
}

// chaosText builds one document body from the seeded stream.
func chaosText(rng *rand.Rand) string {
	n := 5 + rng.Intn(26)
	words := make([]byte, 0, n*8)
	for i := 0; i < n; i++ {
		if i > 0 {
			words = append(words, ' ')
		}
		words = append(words, chaosVocab[rng.Intn(len(chaosVocab))]...)
	}
	return string(words)
}

// chaosQueries is the query mix the readers replay: a bare term, a
// weighted combination with an out-of-vocabulary child, a weighted
// phrase + term tree, and a window beside a three-term phrase.
func chaosQueries() []search.Node {
	return []search.Node{
		search.Term{Text: "alpha"},
		search.Weighted{Children: []search.Child{
			{Weight: 0.6, Node: search.Term{Text: "beta"}},
			{Weight: 0.3, Node: search.Term{Text: "theta"}},
			{Weight: 0.1, Node: search.Term{Text: "missingterm"}},
		}},
		search.Weighted{Children: []search.Child{
			{Weight: 0.7, Node: search.Phrase{Terms: []string{"alpha", "beta"}}},
			{Weight: 0.3, Node: search.Term{Text: "gamma"}},
		}},
		search.Weighted{Children: []search.Child{
			{Weight: 0.5, Node: search.Unordered{Terms: []string{"gamma", "delta"}, Width: 6}},
			{Weight: 0.5, Node: search.Phrase{Terms: []string{"beta", "alpha", "gamma"}}},
		}},
	}
}

// TestIndexWhileChaos: one writer mutates the live index under injected
// flush/merge/manifest faults (every error must be an injected one —
// anything else is a real bug) while two readers continuously pin
// snapshots and verify them against the oracle over monolithic
// rebuilds. Query-path faults are armed too (ShardEval fires per
// segment), so reads also exercise the failure path; a failed read must
// be injected, a successful read must be exact.
func TestIndexWhileChaos(t *testing.T) {
	seed := *segChaosSeed
	t.Logf("chaos seed %d (replay with -segchaos.seed=%d)", seed, seed)

	reg := fault.NewRegistry(seed).
		Set(fault.SegmentFlush, fault.Policy{ErrRate: 0.25}).
		Set(fault.SegmentMerge, fault.Policy{ErrRate: 0.25}).
		Set(fault.SegmentManifest, fault.Policy{ErrRate: 0.20}).
		Set(fault.ShardEval, fault.Policy{ErrRate: 0.02})
	fault.Arm(reg)
	defer fault.Disarm()

	baseRegions := index.MappedRegions()
	// A fixed pool of names with fixed texts: deletes and re-ingests
	// recycle the same documents, so readers can rebuild any snapshot
	// from its LiveDocNames alone.
	corpus := chaosCorpus(48, seed)
	byName := make(map[string]DemoDoc, len(corpus))
	for _, d := range corpus {
		byName[d.Name] = d
	}
	run := startLiveRun(t, corpus, 8)
	live := run.live
	gs := search.NewSegmentedSearcher(live)
	for _, o := range ingest(0, 24) {
		if err := run.apply(o); err != nil && !fault.IsInjected(err) {
			t.Fatal(err)
		}
	}

	const writerOps = 500
	var done atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		wrng := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < writerOps; i++ {
			o := op{kind: opCompact}
			switch p := wrng.Float64(); {
			case p < 0.62:
				o = op{opIngest, wrng.Intn(len(corpus))}
			case p < 0.80:
				o = op{opDelete, wrng.Intn(len(corpus))}
			case p < 0.90:
				o = op{kind: opFlush}
			}
			if err := run.apply(o); err != nil && !fault.IsInjected(err) {
				t.Errorf("writer op %d: non-injected error: %v", i, err)
				return
			}
		}
	}()

	var comparisons, injectedReads atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			queries := chaosQueries()
			for !done.Load() {
				sn := live.Acquire()
				if sn == nil {
					return
				}
				var held []DemoDoc
				for _, name := range sn.LiveDocNames() {
					held = append(held, byName[name])
				}
				mono := search.NewSearcher(monolithic(held))
				for qi, q := range queries {
					got, err := gs.SearchSnapshot(ctx, sn, q, 10)
					if err != nil {
						if !fault.IsInjected(err) {
							t.Errorf("reader %d query %d: non-injected error: %v", r, qi, err)
						}
						injectedReads.Add(1)
						continue
					}
					want := searchtest.Rank(mono, q, 10)
					if !reflect.DeepEqual(want, got) {
						t.Errorf("reader %d query %d gen %d: pinned snapshot diverges from the oracle\n got: %v\nwant: %v",
							r, qi, sn.Gen(), got, want)
					}
					comparisons.Add(1)
				}
				sn.Release()
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if comparisons.Load() < 20 {
		t.Fatalf("only %d snapshot/monolithic comparisons ran; the harness never got going", comparisons.Load())
	}

	// The chaos must actually have happened: each segment point was
	// consulted and faults were injected somewhere.
	st := reg.Stats()
	for _, p := range []fault.Point{fault.SegmentFlush, fault.SegmentMerge, fault.SegmentManifest} {
		if st[p].Hits == 0 {
			t.Errorf("fault point %s was never consulted during the chaos run", p)
		}
	}
	if reg.TotalInjected() == 0 {
		t.Error("no faults were injected; the run was not chaotic")
	}

	// Quiesce: with faults disarmed every retried mutation must succeed,
	// and the settled index must hold what the script's model says and
	// agree with the oracle over it under all three retrieval models.
	fault.Disarm()
	for _, o := range script(flush, compact) {
		if err := run.apply(o); err != nil {
			t.Fatal(err)
		}
	}
	diffLive(t, live, run.held())
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if got := index.MappedRegions(); got != baseRegions {
		t.Fatalf("MappedRegions = %d after chaos run, want %d (leaked a segment mapping)", got, baseRegions)
	}
}
