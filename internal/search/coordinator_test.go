package search

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/index"
)

// contractFixture is one partition kind under the coordinator contract
// suite: a searcher embedding the coordinator, plus the monolithic
// references its answers are held to.
type contractFixture struct {
	co *coordinator
	// mono is a monolithic, unpruned Searcher over the live documents —
	// what every ranking must equal bit for bit.
	mono *Searcher
	// held is a monolithic Searcher over every document the partitions
	// physically hold. Tombstoned segments still walk their dead
	// documents' postings, so the exhaustive counters equal held's, not
	// mono's; without tombstones held == mono.
	held    *Searcher
	queries []Node
	// owner names the partition holding a global DocID.
	owner func(index.DocID) int
}

func (f *contractFixture) numParts(t *testing.T) int {
	t.Helper()
	parts, release, err := f.co.pin()
	if err != nil {
		t.Fatal(err)
	}
	if release != nil {
		release()
	}
	return len(parts)
}

// errFlaky is the failure scriptedPartition classifies as retryable.
var errFlaky = errors.New("flaky partition")

// script is what one partition does wrong during one Evaluate: the
// errors its successive stats and eval calls return (nil or exhausted
// means "behave"), a hook run at the start of every eval, and a value
// its stats call panics with.
type script struct {
	stats, eval []error
	onEval      func()
	statsPanic  any
}

// scriptedPartition wraps a real partition and fails on script.
type scriptedPartition struct {
	partition
	script
}

func next(errs *[]error) error {
	if len(*errs) == 0 {
		return nil
	}
	err := (*errs)[0]
	*errs = (*errs)[1:]
	return err
}

func (p *scriptedPartition) stats(ctx context.Context, qs []Node, pc *partCall, st *SearchStats) error {
	if p.statsPanic != nil {
		panic(p.statsPanic)
	}
	if err := next(&p.script.stats); err != nil {
		return err
	}
	return p.partition.stats(ctx, qs, pc, st)
}

func (p *scriptedPartition) eval(ctx context.Context, req *EvalRequest, pc *partCall, st *SearchStats) error {
	if p.onEval != nil {
		p.onEval()
	}
	if err := next(&p.script.eval); err != nil {
		return err
	}
	return p.partition.eval(ctx, req, pc, st)
}

func (p *scriptedPartition) retryable(err error) bool {
	return errors.Is(err, errFlaky) || p.partition.retryable(err)
}

// inject makes every later Evaluate run partition i under scripts[i]
// (each Evaluate replays the scripts from the start).
func (f *contractFixture) inject(scripts map[int]script) {
	pin := f.co.pin
	f.co.pin = func() ([]partition, func(), error) {
		parts, release, err := pin()
		wrapped := make([]partition, len(parts))
		for i, p := range parts {
			s := scripts[i]
			s.stats = append([]error(nil), s.stats...)
			s.eval = append([]error(nil), s.eval...)
			wrapped[i] = &scriptedPartition{partition: p, script: s}
		}
		return wrapped, release, err
	}
}

// contractQueries are the first two runTrees trees. The third holds one
// leaf twice, which a shard server, reporting its flattened leaf count,
// counts twice in Leaves where an in-process partition counts the union.
func contractQueries() []Node { return runTrees(runWeights, -1)[:2] }

func shardFixture(n int) func(t *testing.T) *contractFixture {
	return func(t *testing.T) *contractFixture {
		ix := skewedIndex(150, 21)
		ss := NewShardedSearcher(index.NewSharded(ix, n))
		mono := NewSearcher(ix)
		return &contractFixture{co: &ss.coordinator, mono: mono, held: mono, queries: contractQueries(),
			owner: func(d index.DocID) int { return int(d) % n }}
	}
}

func rpcFixture(t *testing.T) *contractFixture {
	const n = 3
	ix := skewedIndex(150, 21)
	rs, _ := bootRemote(t, ix, n)
	mono := NewSearcher(ix)
	return &contractFixture{co: &rs.coordinator, mono: mono, held: mono, queries: contractQueries(),
		owner: func(d index.DocID) int { return int(d) % n }}
}

// segmentFixture is four disk segments plus the buffer, with tombstones
// in the first, a middle and the buffer segment.
func segmentFixture(t *testing.T) *contractFixture {
	return segmentFixtureDeleting(t, []string{"D00000", "D00007", "D00031", "D00064", "D00119"})
}

// segmentRank1Fixture is the same five segments with the tombstones
// where they hurt most: on the document each contract query ranks
// first, so every partition holding one must fill its top k from rank 2
// down while the dead document still heads its postings.
func segmentRank1Fixture(t *testing.T) *contractFixture {
	full := monoSearcher(skewedDocs(120, 11))
	var deletes []string
	for _, q := range contractQueries() {
		if top := rank(t, full, q, 1)[0].Name; !slices.Contains(deletes, top) {
			deletes = append(deletes, top)
		}
	}
	return segmentFixtureDeleting(t, deletes)
}

func segmentFixtureDeleting(t *testing.T, deletes []string) *contractFixture {
	docs := skewedDocs(120, 11)
	live := buildSegmented(t, docs, 25, deletes)
	gs := NewSegmentedSearcher(live)
	sn := live.Acquire()
	defer sn.Release()
	var ends []int // ends[i] is the first global DocID past segment i
	for i, end := 0, 0; i < sn.NumSegments(); i++ {
		end += sn.Segment(i).NumDocs() - len(sn.Tombstones(i))
		ends = append(ends, end)
	}
	return &contractFixture{co: &gs.coordinator, mono: monoSearcher(survivorsOf(docs, deletes)), held: monoSearcher(docs),
		queries: contractQueries(),
		owner: func(d index.DocID) int {
			for i, end := range ends {
				if int(d) < end {
					return i
				}
			}
			return -1
		}}
}

// sameCounters compares the evaluator counters an exhaustive evaluation
// fixes regardless of partitioning — or, with all set, every
// deterministic counter.
func sameCounters(t *testing.T, label string, got, want SearchStats, all bool) {
	t.Helper()
	if got.Leaves != want.Leaves || got.CandidatesExamined != want.CandidatesExamined || got.PostingsAdvanced != want.PostingsAdvanced {
		t.Fatalf("%s: counters %v, want %v", label, got, want)
	}
	if all && (got.DocsSkipped != want.DocsSkipped || got.BoundEvaluations != want.BoundEvaluations ||
		got.BlocksDecoded != want.BlocksDecoded || got.BlocksTotal != want.BlocksTotal ||
		got.HeapPushes != want.HeapPushes || got.HeapEvictions != want.HeapEvictions) {
		t.Fatalf("%s: counters %v, want %v", label, got, want)
	}
}

// TestCoordinatorContract holds every partition kind to the one
// coordinator contract. Transport-specific behaviour (real deadlines,
// dead servers, truncated streams, replica failover, pinned snapshots)
// is tested next to the transport; here failures are scripted at the
// partition interface so each kind sees exactly the same ones.
func TestCoordinatorContract(t *testing.T) {
	kinds := []struct {
		name  string
		build func(t *testing.T) *contractFixture
	}{
		{"shards-1", shardFixture(1)},
		{"shards-2", shardFixture(2)},
		{"shards-4", shardFixture(4)},
		{"segments-tombstoned", segmentFixture},
		{"segments-rank1-dead", segmentRank1Fixture},
		{"rpc-3", rpcFixture},
	}
	ctx := context.Background()
	partial := &DegradeOptions{}
	const k = 10
	for _, kind := range kinds {
		t.Run(kind.name+"/bit-identical", func(t *testing.T) {
			f := kind.build(t)
			n := f.numParts(t)
			f.mono.DisablePruning, f.held.DisablePruning = true, true
			for _, prune := range []bool{false, true} {
				f.co.Configure(ShardConfig{DisablePruning: !prune})
				f.co.forcePrune = prune
				for _, kk := range []int{1, k, 1000} {
					for qi, q := range f.queries {
						label := fmt.Sprintf("prune=%v q=%d k=%d", prune, qi, kk)
						want := OracleRank(f.mono, q, kk)
						got, ev, err := evalOne(ctx, f.co, q, kk, EvalOptions{CollectStats: true})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sameResults(t, label, got, want)
						if len(ev.Stats.Shards) != n {
							t.Fatalf("%s: %d Shards rows, want %d", label, len(ev.Stats.Shards), n)
						}
						if !prune {
							_, heldSt := rankStats(t, f.held, q, kk)
							sameCounters(t, label, ev.Stats, heldSt, false)
						}
					}
					// Every query in one evaluation: each tree's ranking
					// is still its own.
					ev, err := f.co.Evaluate(ctx, f.queries, kk, EvalOptions{})
					if err != nil {
						t.Fatal(err)
					}
					for qi, q := range f.queries {
						label := fmt.Sprintf("prune=%v all-trees q=%d k=%d", prune, qi, kk)
						sameResults(t, label, ev.Results[qi], OracleRank(f.mono, q, kk))
					}
				}
			}
			if n == 1 {
				// One partition is the monolithic evaluation: with the
				// cost model choosing the evaluator on both sides, every
				// counter agrees.
				one := NewSearcher(f.mono.Index())
				f.co.Configure(ShardConfig{})
				f.co.forcePrune = false
				for qi, q := range f.queries {
					want, wantSt := rankStats(t, one, q, k)
					got, ev, err := evalOne(ctx, f.co, q, k, EvalOptions{CollectStats: true})
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, fmt.Sprintf("one-partition q=%d", qi), got, want)
					sameCounters(t, fmt.Sprintf("one-partition q=%d", qi), ev.Stats, wantSt, true)
				}
			}
		})

		t.Run(kind.name+"/drop-one-is-exact-subset", func(t *testing.T) {
			f := kind.build(t)
			victim := f.numParts(t) - 1
			f.inject(map[int]script{victim: {eval: []error{errors.New("wedged")}}})
			for qi, q := range f.queries {
				got, ev, err := evalOne(ctx, f.co, q, k, EvalOptions{Degrade: partial})
				if victim == 0 {
					// The only partition failed: nothing to salvage.
					if err == nil || !strings.Contains(err.Error(), "wedged") {
						t.Fatalf("q=%d: sole partition failed, err = %v", qi, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("q=%d: %v", qi, err)
				}
				pi := ev.Partial
				if len(pi.DroppedShards) != 1 || pi.DroppedShards[0] != victim || pi.ShardErrors[0] != "wedged" || pi.Retries != 0 {
					t.Fatalf("q=%d: partial info %+v, want partition %d dropped unretried", qi, pi, victim)
				}
				var want []Result
				for _, r := range rank(t, f.mono, q, f.mono.Index().NumDocs()) {
					if f.owner(r.Doc) != victim && len(want) < k {
						want = append(want, r)
					}
				}
				sameResults(t, fmt.Sprintf("q=%d partial", qi), got, want)
			}
			// All the trees in one evaluation: the victim is out for every
			// tree, and reported once.
			if victim > 0 {
				ev, err := f.co.Evaluate(ctx, f.queries, k, EvalOptions{Degrade: partial})
				if err != nil {
					t.Fatal(err)
				}
				if pi := ev.Partial; len(pi.DroppedShards) != 1 || pi.DroppedShards[0] != victim {
					t.Fatalf("all trees: partial info %+v, want partition %d dropped once", pi, victim)
				}
				for qi, q := range f.queries {
					var want []Result
					for _, r := range rank(t, f.mono, q, f.mono.Index().NumDocs()) {
						if f.owner(r.Doc) != victim && len(want) < k {
							want = append(want, r)
						}
					}
					sameResults(t, fmt.Sprintf("all trees q=%d partial", qi), ev.Results[qi], want)
				}
			}
			// Strict mode surfaces the failure instead.
			if _, _, err := evalOne(ctx, f.co, f.queries[0], k, EvalOptions{}); err == nil || !strings.Contains(err.Error(), "wedged") {
				t.Fatalf("strict: err = %v", err)
			}
		})

		t.Run(kind.name+"/stats-panic-contained", func(t *testing.T) {
			// A panic in phase A — a partition's flatten, positional fills
			// or tombstone corrections — runs on a fan-out goroutine, where
			// an escaped panic kills the process. The coordinator contains
			// it: the partition fails like any other.
			f := kind.build(t)
			victim := min(1, f.numParts(t)-1)
			f.inject(map[int]script{victim: {statsPanic: "flatten blew up"}})
			var pe *fault.PanicError
			if _, err := f.co.Evaluate(ctx, f.queries, k, EvalOptions{}); !errors.As(err, &pe) {
				t.Fatalf("strict: err = %v, want a contained panic", err)
			}
			ev, err := f.co.Evaluate(ctx, f.queries, k, EvalOptions{Degrade: partial})
			if victim == 0 {
				if !errors.As(err, &pe) {
					t.Fatalf("sole partition panicked: err = %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if pi := ev.Partial; len(pi.DroppedShards) != 1 || pi.DroppedShards[0] != victim ||
				!strings.HasPrefix(pi.ShardErrors[0], "stats phase: ") {
				t.Fatalf("partial info %+v, want partition %d dropped in the stats phase", pi, victim)
			}
		})

		t.Run(kind.name+"/all-fail-first-error", func(t *testing.T) {
			f := kind.build(t)
			scripts := map[int]script{}
			for i := 0; i < f.numParts(t); i++ {
				scripts[i] = script{eval: []error{fmt.Errorf("boom %d", i)}}
			}
			f.inject(scripts)
			for _, opts := range []EvalOptions{{}, {Degrade: partial}} {
				ev, err := f.co.Evaluate(ctx, f.queries, k, opts)
				if err == nil || err.Error() != "boom 0" || ev.Results != nil {
					t.Fatalf("opts %+v: err = %v, results %v; want partition 0's error", opts, err, ev.Results)
				}
			}
		})

		t.Run(kind.name+"/cancel-beats-partial", func(t *testing.T) {
			f := kind.build(t)
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			f.inject(map[int]script{0: {eval: []error{context.Canceled}, onEval: cancel}})
			ev, err := f.co.Evaluate(cctx, f.queries, k, EvalOptions{Degrade: partial})
			if !errors.Is(err, context.Canceled) || ev.Results != nil || len(ev.Partial.DroppedShards) > 0 {
				t.Fatalf("cancelled parent: err = %v, results %v, partial %+v", err, ev.Results, ev.Partial)
			}
			// Already cancelled on entry: no partition is touched.
			if _, _, err := evalOne(cctx, f.co, f.queries[0], k, EvalOptions{CollectStats: true}); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled: err = %v", err)
			}
		})

		t.Run(kind.name+"/retries-counted", func(t *testing.T) {
			f := kind.build(t)
			last := f.numParts(t) - 1
			scripts := map[int]script{0: {stats: []error{errFlaky}}}
			s := scripts[last] // partition 0 again when there is only one
			s.eval = []error{errFlaky, errFlaky}
			scripts[last] = s
			f.inject(scripts)
			q := f.queries[0]
			want := rank(t, f.mono, q, k)
			const wantRetries = 3 // one stats re-run plus two eval re-runs
			got, ev, err := evalOne(ctx, f.co, q, k, EvalOptions{Degrade: &DegradeOptions{MaxRetries: 2}})
			if err != nil {
				t.Fatal(err)
			}
			if ev.Partial.Retries != wantRetries || len(ev.Partial.DroppedShards) > 0 {
				t.Fatalf("partial info %+v, want %d retries and no drop", ev.Partial, wantRetries)
			}
			sameResults(t, "after retries", got, want)
			// Out of retries, the flaky partition is dropped (or, alone,
			// fails the query) — and the spent retries are still counted.
			_, ev, err = evalOne(ctx, f.co, q, k, EvalOptions{Degrade: &DegradeOptions{MaxRetries: 1}})
			if last == 0 {
				if !errors.Is(err, errFlaky) {
					t.Fatalf("sole partition out of retries: err = %v", err)
				}
			} else if err != nil || len(ev.Partial.DroppedShards) != 1 || ev.Partial.DroppedShards[0] != last {
				t.Fatalf("out of retries: err = %v, partial %+v", err, ev.Partial)
			}
			if ev.Partial.Retries != 2 {
				t.Fatalf("out of retries: %d retries counted, want 2", ev.Partial.Retries)
			}
		})

		t.Run(kind.name+"/drops-ascending-across-tiers", func(t *testing.T) {
			f := kind.build(t)
			last := f.numParts(t) - 1
			if last < 2 {
				t.Skip("needs three partitions: one per tier and a survivor")
			}
			f.inject(map[int]script{
				0:    {eval: []error{errors.New("eval down")}},
				last: {stats: []error{errors.New("stats down")}},
			})
			got, ev, err := evalOne(ctx, f.co, f.queries[0], k, EvalOptions{Degrade: partial})
			if err != nil {
				t.Fatal(err)
			}
			pi := ev.Partial
			if len(pi.DroppedShards) != 2 || pi.DroppedShards[0] != 0 || pi.DroppedShards[1] != last ||
				pi.ShardErrors[0] != "eval down" || pi.ShardErrors[1] != "stats phase: stats down" {
				t.Fatalf("partial info %+v", pi)
			}
			for _, r := range got {
				if o := f.owner(r.Doc); o == 0 || o == last {
					t.Fatalf("result %+v comes from dropped partition %d", r, o)
				}
			}
			if len(got) == 0 {
				t.Fatal("survivors produced no results")
			}
		})

		t.Run(kind.name+"/saturated-sem-runs-inline", func(t *testing.T) {
			// With no free slot every partition call must fall back to
			// the caller's goroutine — the no-deadlock property that lets
			// concurrent requests' fan-outs share the engine's one pool.
			f := kind.build(t)
			sem := make(chan struct{}, 1)
			sem <- struct{}{}
			f.co.Sem = sem
			q := f.queries[len(f.queries)-1]
			want := rank(t, f.mono, q, k)
			for _, saturated := range []bool{true, false} {
				if !saturated {
					<-sem
				}
				got, _, err := evalOne(ctx, f.co, q, k, EvalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, fmt.Sprintf("saturated=%v", saturated), got, want)
			}
		})
	}
}

// rottedCopy writes ix as a v2 file, opens it, and then flips the file's
// last byte under the live mapping, as bit rot would after Open's scan
// accepted it: the last block of ix's last term fails its checksum on
// its first decode. It returns the opened index and that term.
func rottedCopy(t *testing.T, ix *index.Index) (*index.Index, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := index.WriteFile(path, ix, index.FormatV2); err != nil {
		t.Fatal(err)
	}
	disk, err := index.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	return disk, ix.TermText(int32(ix.NumTerms() - 1))
}

// TestCorruptIndexFailsQueries: a query that meets a block failing its
// checksum fails with index.ErrCorrupt instead of ranking the postings
// left, and so does every later query over that index, rotted block or
// not. Under degradation the corrupt partition is dropped and listed.
func TestCorruptIndexFailsQueries(t *testing.T) {
	ctx := context.Background()
	t.Run("strict", func(t *testing.T) {
		ix, last := rottedCopy(t, skewedIndex(120, 11))
		s := NewSearcher(ix)
		for _, q := range []Node{Term{Text: last}, Term{Text: last}, Term{Text: "a"}} {
			if _, _, err := evalOne(ctx, s, q, 10, EvalOptions{}); !errors.Is(err, index.ErrCorrupt) || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("%v: err = %v, want index.ErrCorrupt naming the checksum", q, err)
			}
		}
	})
	t.Run("degraded-shard", func(t *testing.T) {
		sh := index.NewSharded(skewedIndex(120, 11), 2)
		rotted, last := rottedCopy(t, sh.Shard(1))
		s := NewShardedSearcher(sh)
		parts := shardPartitions(sh)
		parts[1].(*localPartition).ix = rotted
		s.pin = fixed(parts...)
		got, ev, err := evalOne(ctx, s, Term{Text: last}, 10, EvalOptions{Degrade: &DegradeOptions{}})
		if err != nil {
			t.Fatal(err)
		}
		if pi := ev.Partial; !slices.Equal(pi.DroppedShards, []int{1}) || !strings.Contains(pi.ShardErrors[0], "checksum mismatch") {
			t.Fatalf("partial info %+v, want shard 1 dropped for its checksum", pi)
		}
		for _, r := range got {
			if r.Doc%2 != 0 {
				t.Fatalf("document %d of the dropped shard was ranked", r.Doc)
			}
		}
	})
}
