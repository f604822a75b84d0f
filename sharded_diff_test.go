package sqe

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// shardedPair builds an unsharded reference engine and a sharded engine
// over the shared demo substrates with identical retrieval options.
func shardedPair(t *testing.T, shards int, opts ...Option) (*Engine, *Engine) {
	t.Helper()
	e := demo(t)
	ref := NewEngine(e.Engine.Graph(), e.Engine.Index(), opts...)
	sharded := NewEngine(e.Engine.Graph(), e.Engine.Index(), append([]Option{WithShards(shards)}, opts...)...)
	return ref, sharded
}

// TestEngineShardedBitIdentical is the engine-level differential gate
// for the tentpole: for S ∈ {1,2,4,8} and all three retrieval models,
// every pipeline configuration must return rankings and scores
// bit-identical (DeepEqual, no tolerance) to the unsharded engine.
func TestEngineShardedBitIdentical(t *testing.T) {
	e := demo(t)
	models := []struct {
		name string
		opts []Option
	}{
		{"dirichlet", nil},
		{"jelinek-mercer", []Option{WithRetrievalModel(ModelJelinekMercer, ModelParams{Lambda: 0.4})}},
		{"bm25", []Option{WithRetrievalModel(ModelBM25, ModelParams{})}},
	}
	for _, m := range models {
		for _, s := range []int{1, 2, 4, 8} {
			ref, sh := shardedPair(t, s, m.opts...)
			if s > 1 && sh.Shards() != s {
				t.Fatalf("%s S=%d: Shards()=%d", m.name, s, sh.Shards())
			}
			// ParseQuery retrieves through the shards too.
			wp, err := ref.ParseQuery("#weight(0.7 cable 0.3 car)", 15)
			if err != nil {
				t.Fatal(err)
			}
			gp, err := sh.ParseQuery("#weight(0.7 cable 0.3 car)", 15)
			if err != nil || !reflect.DeepEqual(wp, gp) {
				t.Fatalf("%s S=%d: ParseQuery diverges on sharded engine (err=%v)", m.name, s, err)
			}
			for _, q := range e.Queries {
				for _, req := range []SearchRequest{
					{Query: q.Text, EntityTitles: q.EntityTitles, K: 10},                    // SQE_C
					{Query: q.Text, EntityTitles: q.EntityTitles, K: 300},                   // SQE_C past the splice ranks
					{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifTS, K: 25}, // single set
					{Query: q.Text, K: 25, Baseline: true},                                  // QL_Q
				} {
					want, err := ref.Do(context.Background(), req)
					if err != nil {
						t.Fatalf("%s S=%d %s: unsharded: %v", m.name, s, q.ID, err)
					}
					got, err := sh.Do(context.Background(), req)
					if err != nil {
						t.Fatalf("%s S=%d %s: sharded: %v", m.name, s, q.ID, err)
					}
					if !reflect.DeepEqual(want.Results, got.Results) {
						t.Fatalf("%s S=%d %s k=%d set=%v baseline=%v: sharded results diverge",
							m.name, s, q.ID, req.K, req.MotifSet, req.Baseline)
					}
					if !reflect.DeepEqual(want.Expansion, got.Expansion) {
						t.Fatalf("%s S=%d %s: expansions diverge", m.name, s, q.ID)
					}
				}
			}
		}
	}
}

// TestEngineShardedPRFBitIdentical covers the PRF reformulation path:
// the feedback pass runs unsharded on both engines, so the final
// retrieval must agree exactly.
func TestEngineShardedPRFBitIdentical(t *testing.T) {
	e := demo(t)
	ref, sh := shardedPair(t, 4)
	cfg := PRFConfig{FbDocs: 5, FbTerms: 10, OrigWeight: 0.5}
	for _, q := range e.Queries[:3] {
		want, err := ref.Do(context.Background(), SearchRequest{
			Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifT, K: 20, PRF: &cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sh.Do(context.Background(), SearchRequest{
			Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifT, K: 20, PRF: &cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Results, got.Results) {
			t.Fatalf("%s: sharded PRF results diverge", q.ID)
		}
	}
}

// TestEngineShardedStats: on a sharded engine CollectStats must expose
// one ShardStats entry per shard per retrieval, and the deterministic
// counters must match the unsharded engine's.
func TestEngineShardedStats(t *testing.T) {
	e := demo(t)
	// The exact-partition property below ("shards split the candidate
	// set") only holds for exhaustive evaluation: with pruning on, each
	// shard prunes against its own threshold and does incomparable
	// amounts of work. Pruned-mode stats invariants are covered in
	// TestEnginePruningStats.
	ref, sh := shardedPair(t, 4, WithPruning(false))
	q := e.Queries[0]
	req := SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifTS, K: 10, CollectStats: true}
	want, err := ref.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats == nil {
		t.Fatal("CollectStats returned nil Stats")
	}
	if len(got.Stats.Search.Shards) != 4 {
		t.Fatalf("Shards stats entries = %d, want 4", len(got.Stats.Search.Shards))
	}
	if len(want.Stats.Search.Shards) != 0 {
		t.Fatalf("unsharded engine reported shard stats: %d", len(want.Stats.Search.Shards))
	}
	// Work counters partition exactly across shards.
	if got.Stats.Search.CandidatesExamined != want.Stats.Search.CandidatesExamined ||
		got.Stats.Search.PostingsAdvanced != want.Stats.Search.PostingsAdvanced ||
		got.Stats.Search.Leaves != want.Stats.Search.Leaves {
		t.Fatalf("sharded counters diverge: sharded=%+v unsharded=%+v", got.Stats.Search, want.Stats.Search)
	}
	var cands int64
	for _, s := range got.Stats.Search.Shards {
		cands += s.CandidatesExamined
	}
	if cands != got.Stats.Search.CandidatesExamined {
		t.Fatalf("per-shard candidates %d != aggregate %d", cands, got.Stats.Search.CandidatesExamined)
	}
}

// TestWithShardsClamp: shard counts beyond the corpus clamp; 0 and 1
// keep the unsharded path.
func TestWithShardsClamp(t *testing.T) {
	e := demo(t)
	docs := e.Engine.Index().NumDocs()
	if got := NewEngine(e.Engine.Graph(), e.Engine.Index(), WithShards(docs+100)).Shards(); got != docs {
		t.Fatalf("Shards()=%d, want clamp to NumDocs=%d", got, docs)
	}
	for _, n := range []int{0, 1, -3} {
		if got := NewEngine(e.Engine.Graph(), e.Engine.Index(), WithShards(n)).Shards(); got != 1 {
			t.Fatalf("WithShards(%d): Shards()=%d, want 1", n, got)
		}
	}
}

// TestEngineShardedCancellation: cancellation surfaces from a sharded
// engine's Do.
func TestEngineShardedCancellation(t *testing.T) {
	e := demo(t)
	_, sh := shardedPair(t, 4)
	q := e.Queries[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sh.Do(ctx, SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
