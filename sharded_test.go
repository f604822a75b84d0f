package sqe

import (
	"context"
	"errors"
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
	if len(want.Stats.Search.Shards) != 1 {
		t.Fatalf("unsharded engine reported %d shard stats rows, want its one shard's", len(want.Stats.Search.Shards))
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
	shards := func(n int) int {
		return NewEngine(e.Engine.Graph(), e.Engine.Index(), WithShards(n)).dist.(interface{ NumShards() int }).NumShards()
	}
	if got := shards(docs + 100); got != docs {
		t.Fatalf("%d shards, want clamp to NumDocs=%d", got, docs)
	}
	for _, n := range []int{0, 1, -3} {
		if got := shards(n); got != 1 {
			t.Fatalf("WithShards(%d): %d shards, want 1", n, got)
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
