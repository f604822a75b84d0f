package search

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/index"
)

// blockSized clones nothing — it sets the block size ix will be written
// with in FormatV2 (and so the decode granularity of streaming cursors
// over that file). On an index that stays in memory the call only has
// to keep succeeding: nothing on the query path reads block summaries.
func blockSized(t *testing.T, ix *index.Index, bs int) *index.Index {
	t.Helper()
	if err := ix.SetBlockSize(bs); err != nil {
		t.Fatal(err)
	}
	return ix
}

// v2Copy rounds mem through a FormatV2 file at its current block size
// and returns the mmap'd index, whose term leaves stream.
func v2Copy(t *testing.T, mem *index.Index) *index.Index {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := index.WriteFile(path, mem, index.FormatV2); err != nil {
		t.Fatal(err)
	}
	disk, err := index.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return disk
}

// TestPrunedMatchesDAATSmallBlocks: the pruned-vs-oracle differential
// over three corpora, three models and several k, at tiny block sizes. The pruned side runs twice: over the in-memory index,
// where the block size must not matter at all, and over its v2 file,
// where tiny blocks maximise the block edges the streaming cursors'
// gallops land on, skip across and resume from.
func TestPrunedMatchesDAATSmallBlocks(t *testing.T) {
	for _, bs := range []int{1, 2, 4, 16} {
		corpora := map[string]*index.Index{
			"skewed":  blockSized(t, buildSkewedIndex(300, 23), bs),
			"ties":    blockSized(t, buildIndex("a b", "a b", "a b", "a b", "b c", "b c", "z"), bs),
			"lengths": blockSized(t, buildIndex("a", "a a a a a a a a a a a a", "a b", "b", "z a"), bs),
		}
		for cname, ix := range corpora {
			disk := v2Copy(t, ix)
			for _, m := range pruningModels {
				pruned, full := prunedPair(ix, m.model, m.params)
				streamed, _ := prunedPair(disk, m.model, m.params)
				for qname, q := range pruningQueries() {
					all := OracleRank(full, q, ix.NumDocs())
					for _, k := range []int{1, 3, 10} {
						want := all[:min(k, len(all))]
						label := fmt.Sprintf("bs=%d/%s/%s/%s k=%d", bs, cname, m.name, qname, k)
						assertIdenticalResults(t, label+" memory", rank(t, pruned, q, k), want)
						assertIdenticalResults(t, label+" v2", rank(t, streamed, q, k), want)
					}
				}
			}
			if err := disk.Err(); err != nil {
				t.Fatalf("bs=%d/%s: lazy decode recorded an error: %v", bs, cname, err)
			}
		}
	}
}

// TestPrunedCounterInvariants: the accounting identity of the pruned
// path — the candidate filter's refinement moves only non-essential
// cursors, so every postings entry of the query's distinct leaves is
// still consumed or skipped exactly once (the dup-term row's repeated
// leaf counts once) — and the heap sees the identical accepted sequence.
func TestPrunedCounterInvariants(t *testing.T) {
	ix := blockSized(t, buildSkewedIndex(400, 29), 3)
	for _, m := range pruningModels {
		for qname, q := range pruningQueries() {
			pruned, full := prunedPair(ix, m.model, m.params)
			_, pst := rankStats(t, pruned, q, 10)
			_, fst := rankStats(t, full, q, 10)
			label := fmt.Sprintf("%s/%s", m.name, qname)
			mass := unionMass(full, q)
			if pst.PostingsAdvanced+pst.DocsSkipped != mass || fst.PostingsAdvanced != mass {
				t.Errorf("%s: advanced %d + skipped %d (exhaustive: %d) != union postings mass %d",
					label, pst.PostingsAdvanced, pst.DocsSkipped, fst.PostingsAdvanced, mass)
			}
			if pst.HeapPushes != fst.HeapPushes || pst.HeapEvictions != fst.HeapEvictions {
				t.Errorf("%s: heap traffic (%d,%d) != full (%d,%d)",
					label, pst.HeapPushes, pst.HeapEvictions, fst.HeapPushes, fst.HeapEvictions)
			}
			if fst.DocsSkipped != 0 || fst.BoundEvaluations != 0 {
				t.Errorf("%s: exhaustive path pruned: %+v", label, fst)
			}
		}
	}
}

// TestPrunedSearchDerivesNoBlockSummaries: a pruned expanded query over
// a memory-backed index reads no block summaries — only the v2 writer
// derives them, as it writes — so the block size can still be chosen
// afterwards.
func TestPrunedSearchDerivesNoBlockSummaries(t *testing.T) {
	ix := buildSkewedIndex(300, 41)
	for _, m := range pruningModels {
		for _, q := range pruningQueries() {
			pruned, _ := prunedPair(ix, m.model, m.params)
			if _, st := rankStats(t, pruned, q, 10); st.BlocksTotal != 0 {
				t.Fatalf("%s: a memory-backed index reported %d blocks", m.name, st.BlocksTotal)
			}
		}
	}
	if err := ix.SetBlockSize(4); err != nil {
		t.Fatalf("SetBlockSize after pruned searches: %v", err)
	}
}

// TestPrunedOverV2File: the evaluator differential through the on-disk
// path — round the corpus through a FormatV2 file with 4-posting blocks,
// search the mmap'd index through streaming cursors with pruning on, and
// demand bit-identity with the oracle over the original in-memory
// index. The gallops pruning performs must also save decode
// work: fewer blocks decoded than the walked terms hold.
func TestPrunedOverV2File(t *testing.T) {
	mem := blockSized(t, buildSkewedIndex(350, 31), 4)
	disk := v2Copy(t, mem)
	var scoredFull, scoredPruned, decoded, blocks int64
	for _, m := range dirichletModels {
		for qname, q := range pruningQueries() {
			for _, k := range []int{1, 5, 25} {
				pruned := NewSearcher(disk)
				pruned.Model, pruned.Params = m.model, m.params
				pruned.forcePrune = true
				full := NewSearcher(mem)
				full.Model, full.Params = m.model, m.params
				full.DisablePruning = true
				_, fst := rankStats(t, full, q, k)
				got, pst := rankStats(t, pruned, q, k)
				assertIdenticalResults(t, fmt.Sprintf("v2/%s/%s k=%d", m.name, qname, k), got, OracleRank(full, q, k))
				scoredFull += fst.CandidatesExamined
				scoredPruned += pst.CandidatesExamined
				decoded += pst.BlocksDecoded
				blocks += pst.BlocksTotal
			}
		}
	}
	if decoded == 0 || decoded >= blocks {
		t.Errorf("streaming cursors decoded %d of %d blocks: skipping saved no decode", decoded, blocks)
	}
	if scoredFull < 2*scoredPruned {
		t.Errorf("pruning over the v2 file scored %d documents against %d exhaustive: less than the 2x floor", scoredPruned, scoredFull)
	}
	if disk.Err() != nil {
		t.Fatalf("lazy decode recorded an error: %v", disk.Err())
	}
}

// TestPrunedShardedSmallBlocks: per-shard pruning across shard counts
// stays bit-identical to the oracle over the unsharded index, and the
// aggregated stats carry the shards' pruning counters.
func TestPrunedShardedSmallBlocks(t *testing.T) {
	ix := blockSized(t, buildSkewedIndex(600, 37), 4)
	var skipped int64
	for _, m := range dirichletModels {
		ref := NewSearcher(ix)
		ref.Model, ref.Params = m.model, m.params
		for _, S := range []int{1, 2, 4} {
			for qname, q := range pruningQueries() {
				want := OracleRank(ref, q, 10)

				ss := NewShardedSearcher(index.NewSharded(ix, S))
				ss.Model, ss.Params = m.model, m.params
				ss.forcePrune = true
				got, st, err := ss.SearchWithStatsContext(context.Background(), q, 10)
				if err != nil {
					t.Fatal(err)
				}
				assertIdenticalResults(t, fmt.Sprintf("%s/S=%d/%s", m.name, S, qname), got, want)
				skipped += st.DocsSkipped
			}
		}
	}
	if skipped == 0 {
		t.Fatal("sharded path never skipped a posting")
	}
}
