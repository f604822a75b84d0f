package search

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/index"
)

// blockSized clones nothing — it derives block metadata on ix at the
// given block size so the Block-Max tier of the candidate filter has
// many small blocks to consult. Tests that want the default 128-doc
// blocks simply skip the call.
func blockSized(t *testing.T, ix *index.Index, bs int) *index.Index {
	t.Helper()
	if err := ix.SetBlockSize(bs); err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestBlockMaxMatchesDAATSmallBlocks: the Block-Max differential. Tiny
// block sizes maximise the number of per-block bound consultations (and
// hence the chances of an unsound block bound changing a ranking), so
// bit-identity here is the strongest cheap evidence the tier-2 filter
// is score-safe.
func TestBlockMaxMatchesDAATSmallBlocks(t *testing.T) {
	var blockEvals int64
	for _, bs := range []int{1, 2, 4, 16} {
		corpora := map[string]*index.Index{
			"skewed":  blockSized(t, buildSkewedIndex(300, 23), bs),
			"ties":    blockSized(t, buildIndex("a b", "a b", "a b", "a b", "b c", "b c", "z"), bs),
			"lengths": blockSized(t, buildIndex("a", "a a a a a a a a a a a a", "a b", "b", "z a"), bs),
		}
		for cname, ix := range corpora {
			for _, m := range pruningModels {
				for qname, q := range pruningQueries() {
					for _, k := range []int{1, 3, 10} {
						pruned, full := prunedPair(ix, m.model, m.params, m.mu)
						want := full.Search(q, k)
						got, st := pruned.SearchWithStats(q, k)
						assertIdenticalResults(t, fmt.Sprintf("bs=%d/%s/%s/%s k=%d", bs, cname, m.name, qname, k), got, want)
						blockEvals += st.BlockBoundEvaluations
					}
				}
			}
		}
	}
	if blockEvals == 0 {
		t.Fatal("tier-2 block bounds were never consulted across the whole matrix")
	}
}

// TestBlockMaxCounterInvariants: the accounting identity survives the
// Block-Max tier at adversarially small block sizes — tier 2 moves no
// cursors, so every postings entry is still consumed or skipped exactly
// once, and the heap sees the identical accepted sequence.
func TestBlockMaxCounterInvariants(t *testing.T) {
	ix := blockSized(t, buildSkewedIndex(400, 29), 3)
	for _, m := range pruningModels {
		for qname, q := range pruningQueries() {
			pruned, full := prunedPair(ix, m.model, m.params, m.mu)
			_, pst := pruned.SearchWithStats(q, 10)
			_, fst := full.SearchWithStats(q, 10)
			label := fmt.Sprintf("%s/%s", m.name, qname)
			if pst.PostingsAdvanced+pst.DocsSkipped != fst.PostingsAdvanced {
				t.Errorf("%s: advanced %d + skipped %d != full postings mass %d",
					label, pst.PostingsAdvanced, pst.DocsSkipped, fst.PostingsAdvanced)
			}
			if pst.HeapPushes != fst.HeapPushes || pst.HeapEvictions != fst.HeapEvictions {
				t.Errorf("%s: heap traffic (%d,%d) != full (%d,%d)",
					label, pst.HeapPushes, pst.HeapEvictions, fst.HeapPushes, fst.HeapEvictions)
			}
			if fst.BlockBoundEvaluations != 0 {
				t.Errorf("%s: exhaustive path consulted block bounds: %+v", label, fst)
			}
		}
	}
}

// TestBlockMaxOverV2File: the evaluator differential through the
// on-disk path — round the corpus through a FormatV2 file, search the
// mmap'd lazily-decoded index with pruning on, and demand bit-identity
// with the exhaustive scan over the original in-memory index.
func TestBlockMaxOverV2File(t *testing.T) {
	mem := blockSized(t, buildSkewedIndex(350, 31), 4)
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := index.WriteFile(path, mem, index.FormatV2); err != nil {
		t.Fatal(err)
	}
	disk, err := index.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	var scoredFull, scoredPruned, blockEvals, decoded, blocks int64
	for _, m := range pruningModels {
		for qname, q := range pruningQueries() {
			for _, k := range []int{1, 5, 25} {
				pruned := NewSearcher(disk)
				pruned.Model, pruned.Params, pruned.Mu = m.model, m.params, m.mu
				pruned.forcePrune = true
				full := NewSearcher(mem)
				full.Model, full.Params, full.Mu = m.model, m.params, m.mu
				full.DisablePruning = true
				want, fst := full.SearchWithStats(q, k)
				got, pst := pruned.SearchWithStats(q, k)
				assertIdenticalResults(t, fmt.Sprintf("v2/%s/%s k=%d", m.name, qname, k), got, want)
				scoredFull += fst.CandidatesExamined
				scoredPruned += pst.CandidatesExamined
				blockEvals += pst.BlockBoundEvaluations
				decoded += pst.BlocksDecoded
				blocks += pst.BlocksTotal
			}
		}
	}
	if blockEvals == 0 {
		t.Error("block bounds were never consulted over the v2 file")
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

// TestBlockMaxShardedSmallBlocks: per-shard Block-Max filtering across
// shard counts stays bit-identical to the exhaustive unsharded scan,
// and the aggregated stats carry the block-consultation counter.
func TestBlockMaxShardedSmallBlocks(t *testing.T) {
	ix := blockSized(t, buildSkewedIndex(600, 37), 4)
	var blockEvals int64
	for _, m := range pruningModels {
		for _, S := range []int{1, 2, 4} {
			for qname, q := range pruningQueries() {
				full := NewSearcher(ix)
				full.Model, full.Params, full.Mu = m.model, m.params, m.mu
				full.DisablePruning = true
				want := full.Search(q, 10)

				ss := NewShardedSearcher(index.NewSharded(ix, S))
				ss.Model, ss.Params, ss.Mu = m.model, m.params, m.mu
				ss.forcePrune = true
				got, st, err := ss.SearchWithStatsContext(context.Background(), q, 10)
				if err != nil {
					t.Fatal(err)
				}
				assertIdenticalResults(t, fmt.Sprintf("%s/S=%d/%s", m.name, S, qname), got, want)
				blockEvals += st.BlockBoundEvaluations
			}
		}
	}
	if blockEvals == 0 {
		t.Fatal("sharded path never consulted block bounds")
	}
}
