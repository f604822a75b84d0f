package search

import (
	"fmt"
	"time"
)

// SearchStats instruments one retrieval: how much work the evaluator did
// and how long it took. All counters are cheap increments on the hot
// path; collecting them costs nothing measurable next to scoring, so
// Evaluate fills them whenever the caller asks (EvalOptions.CollectStats).
//
// Aggregation convention for sharded retrievals: every top-level counter
// is the SUM of the per-shard evaluators' work (each shard evaluates
// independently, so e.g. CandidatesExamined is total documents scored
// across shards, not a per-shard figure), while Shards[i] carries shard
// i's own slice of the work. New counters must follow the same rule —
// the pruning counters (DocsSkipped, BoundEvaluations) do.
type SearchStats struct {
	// Leaves is the number of distinct leaves the evaluation scored: the
	// union of its trees' flattened leaves, so a leaf repeated within a
	// tree, or shared by several trees of one evaluation, counts once.
	// Partitioned: the largest union a partition evaluated, NOT a sum (a
	// shard server's count does not cross the wire; over RPC it is the
	// trees' flattened leaf count).
	Leaves int
	// CandidatesExamined counts the distinct documents scored (without
	// pruning: the size of the union of the leaves' postings; with
	// pruning: the subset of that union actually evaluated).
	CandidatesExamined int64
	// PostingsAdvanced counts cursor advances across the distinct leaves
	// — the postings entries the evaluator consumed.
	PostingsAdvanced int64
	// DocsSkipped counts postings entries pruning galloped over without
	// scoring their documents (0 on the unpruned path).
	// An entry is either consumed or skipped, so
	// PostingsAdvanced + DocsSkipped equals the postings mass of the
	// query's distinct leaves — what PostingsAdvanced alone is without
	// pruning.
	DocsSkipped int64
	// BoundEvaluations counts score-bound tests against the running
	// top-k threshold: one per candidate upper-bound check once the
	// heap is full, one per refinement step inside the candidate
	// filter (its one loop visits each non-essential leaf at most once
	// per candidate), plus one per essential/non-essential re-partition
	// after a threshold increase. A dropped backfill run adds none after
	// its drop.
	BoundEvaluations int64
	// BlocksDecoded counts the postings blocks the streaming cursors
	// actually decoded, and BlocksTotal the blocks their terms hold in
	// total — BlocksDecoded/BlocksTotal is the decoded-block fraction,
	// the measure of how well decode granularity tracked pruning
	// granularity. Both are zero when no leaf streamed (an in-memory
	// index); exhaustive scoring decodes every block it is offered, so
	// the fraction approaches 1 there.
	BlocksDecoded int64
	BlocksTotal   int64
	// PositionalHits counts the phrase/window leaves flatten found
	// already resolved in the index's positional memo (or trivially empty:
	// an out-of-vocabulary constituent), PositionalMisses those whose
	// intersection this retrieval ran: one lookup per distinct node of
	// the request, whichever of its trees name it. Counted by in-process
	// partitions only; a shard server's lookups do not cross the wire.
	PositionalHits   int64
	PositionalMisses int64
	// HeapPushes counts insertions into the bounded top-k heap while it
	// was still filling.
	HeapPushes int64
	// HeapEvictions counts candidates that displaced the current k-th
	// best; CandidatesExamined − HeapPushes − HeapEvictions documents
	// were rejected without touching the heap.
	HeapEvictions int64
	// correctionProbes counts the tombstones that live segments had to
	// look up in a leaf's postings because their memoised correction was
	// behind the snapshot (index.Correction.Probes, summed over leaves and
	// segments): zero on a repeat query against an unchanged snapshot.
	// Unexported — the tests' evidence that corrections are incremental,
	// not an operator metric.
	correctionProbes int64
	// Elapsed is the wall-clock time of the evaluation.
	Elapsed time.Duration
	// Shards holds one row per partition the evaluation ran over: a
	// Searcher's whole index, a ShardedSearcher's or RemoteSharded's
	// shards, a SegmentedSearcher's live segments. The aggregate counters
	// above already include every partition's work.
	Shards []ShardStats
}

// ShardStats instruments one shard's slice of a sharded retrieval.
type ShardStats struct {
	// Elapsed is the shard evaluation's wall-clock time. Shards evaluate
	// concurrently, so the sum across shards can exceed SearchStats.Elapsed.
	Elapsed time.Duration
	// CandidatesExamined counts the documents this shard scored.
	CandidatesExamined int64
	// PostingsAdvanced counts the shard's posting-cursor advances.
	PostingsAdvanced int64
	// DocsSkipped counts the postings entries this shard's pruned
	// evaluator galloped over. Each shard prunes against its own top-k
	// threshold (shared-nothing), so the split of skips across shards —
	// unlike the candidate split of the unpruned path — is not a simple
	// partition of the unsharded figure.
	DocsSkipped int64
}

// Add accumulates o into s (for aggregating per-query stats over a run).
// Per-shard entries add element-wise; aggregating runs with different
// shard counts extends the slice to the larger of the two.
func (s *SearchStats) Add(o SearchStats) {
	s.Leaves += o.Leaves
	s.CandidatesExamined += o.CandidatesExamined
	s.PostingsAdvanced += o.PostingsAdvanced
	s.DocsSkipped += o.DocsSkipped
	s.BoundEvaluations += o.BoundEvaluations
	s.BlocksDecoded += o.BlocksDecoded
	s.BlocksTotal += o.BlocksTotal
	s.PositionalHits += o.PositionalHits
	s.PositionalMisses += o.PositionalMisses
	s.HeapPushes += o.HeapPushes
	s.HeapEvictions += o.HeapEvictions
	s.correctionProbes += o.correctionProbes
	s.Elapsed += o.Elapsed
	for i, sh := range o.Shards {
		if i < len(s.Shards) {
			s.Shards[i].Elapsed += sh.Elapsed
			s.Shards[i].CandidatesExamined += sh.CandidatesExamined
			s.Shards[i].PostingsAdvanced += sh.PostingsAdvanced
			s.Shards[i].DocsSkipped += sh.DocsSkipped
		} else {
			s.Shards = append(s.Shards, sh)
		}
	}
}

// String renders the counters compactly.
func (s SearchStats) String() string {
	return fmt.Sprintf("leaves=%d cands=%d advanced=%d skipped=%d bound-evals=%d blocks=%d/%d pushes=%d evictions=%d elapsed=%v",
		s.Leaves, s.CandidatesExamined, s.PostingsAdvanced, s.DocsSkipped, s.BoundEvaluations,
		s.BlocksDecoded, s.BlocksTotal, s.HeapPushes, s.HeapEvictions, s.Elapsed.Round(time.Microsecond))
}
