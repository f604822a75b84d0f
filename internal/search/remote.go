package search

import (
	"context"
	"fmt"

	"repro/internal/rpc"
)

// RemoteSharded is the coordinator side of shard-per-process serving:
// the coordinator over one remote partition per shard server (each a
// ShardService over one slice of an index.Sharded partition, fronted by
// a replica Group). Scores are bit-identical to the in-process
// ShardedSearcher over the same corpus and shard count — the shard
// servers run the same localPartition code, only the transport differs.
// Replica failover inside a Group is a transport detail, not a
// degradation; what the coordinator sees fail is the whole group.
type RemoteSharded struct {
	coordinator
	groups []*rpc.Group
}

// NewRemoteSharded performs the handshake against one replica group per
// shard: every group must answer shard.info with the expected shard
// index and shard count. The per-shard corpus totals are retained for
// the global statistics sums.
func NewRemoteSharded(ctx context.Context, groups []*rpc.Group) (*RemoteSharded, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("search: remote coordinator needs at least one shard group")
	}
	parts := make([]partition, len(groups))
	for i, g := range groups {
		out, err := g.Call(ctx, MethodInfo, struct{}{}, func() any { return &InfoResponse{} })
		if err != nil {
			return nil, fmt.Errorf("search: shard %d handshake: %w", i, err)
		}
		info := *out.(*InfoResponse)
		if info.Shard != i || info.NumShards != len(groups) {
			return nil, fmt.Errorf("search: shard group %d serves shard %d/%d, want %d/%d",
				i, info.Shard, info.NumShards, i, len(groups))
		}
		parts[i] = &remotePartition{group: g, info: info}
	}
	return &RemoteSharded{
		coordinator: coordinator{shards: len(groups), pin: fixed(parts)},
		groups:      groups,
	}, nil
}

// Close closes every shard group's clients.
func (rs *RemoteSharded) Close() {
	for _, g := range rs.groups {
		g.Close()
	}
}
