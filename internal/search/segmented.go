package search

import (
	"context"
	"errors"

	"repro/internal/index"
)

// SegmentedSearcher evaluates structured queries against a live
// index.Segmented: per query it pins the current snapshot and runs the
// coordinator over one in-process partition per live segment. Results
// and scores are bit-identical to evaluating the same query on a
// monolithic index built from the snapshot's surviving documents in
// ingestion order: survivors remap to the
// DocIDs that rebuild would assign (segment base + survivor rank),
// which preserves the (score desc, DocID asc) tie-break bit for bit.
// localPartition says where tombstones enter.
//
// A segmented index is one logical shard (NumShards is 1) — the segment
// count varies per snapshot and shows in SearchStats.Shards and
// PartialInfo.DroppedShards, where segments take the role of shards.
type SegmentedSearcher struct{ coordinator }

// NewSegmentedSearcher returns a SegmentedSearcher over live with the
// default μ.
func NewSegmentedSearcher(live *index.Segmented) *SegmentedSearcher {
	return &SegmentedSearcher{coordinator{
		shards: 1,
		pin: func() ([]partition, func(), error) {
			sn := live.Acquire()
			if sn == nil {
				return nil, nil, errors.New("search: segmented index is closed")
			}
			return snapshotPartitions(sn), sn.Release, nil
		},
	}}
}

// SearchSnapshot evaluates q against an explicitly pinned snapshot
// instead of the live index's current one — the entry the chaos harness
// uses to prove a pinned view stays bit-identical to its monolithic
// rebuild while mutations and faults race past it. The caller owns sn's
// pin; it is not released here.
func (gs *SegmentedSearcher) SearchSnapshot(ctx context.Context, sn *index.Snapshot, q Node, k int) ([]Result, error) {
	pinned := gs.coordinator
	pinned.pin = fixed(snapshotPartitions(sn)...)
	ev, err := pinned.Evaluate(ctx, []Node{q}, k, EvalOptions{})
	if err != nil {
		return nil, err
	}
	return ev.Results[0], nil
}
