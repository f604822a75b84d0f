package search

import "repro/internal/index"

// ShardedSearcher evaluates structured queries against an index.Sharded:
// the coordinator over one in-process partition per round-robin shard.
// Results and scores are bit-identical to evaluating the same query on
// the unsharded index — within a shard,
// ascending local DocIDs correspond to ascending global DocIDs, so each
// shard's top k under (score desc, local DocID asc) is exactly its
// slice of the global ordering and the merge reconstructs the unsharded
// ranking.
type ShardedSearcher struct{ coordinator }

// NewShardedSearcher returns a ShardedSearcher over sh with the default μ.
func NewShardedSearcher(sh *index.Sharded) *ShardedSearcher {
	return &ShardedSearcher{coordinator{
		shards: sh.NumShards(),
		pin:    fixed(shardPartitions(sh)...),
	}}
}
