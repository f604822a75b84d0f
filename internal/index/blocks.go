package index

import "errors"

// The block directory of the v2 on-disk format (v2.go). A postings list
// is stored as consecutive fixed-size blocks of DefaultBlockSize
// postings (the last block may be short); every block carries the same
// summary TermBounds keeps for the whole list, plus the block's last
// document. The directory does two jobs, and neither is a pruning tier
// (the pruned evaluator bounds a leaf by its whole list only; DESIGN.md
// §5j has the measurement that retired per-block bounds):
//
//   - decode-skip granularity: a streaming cursor (stream.go) locates
//     the block that could hold its target through LastDoc and decodes
//     that block only, so the blocks a gallop jumps over are never read;
//   - the cross-check on whole-list bounds: Open demands that the
//     per-block summaries merge to the stored whole-list summary, and
//     the cursor re-derives a block's summary on first decode, so an
//     untrusted file cannot understate the bounds MaxScore's safety
//     rests on without one of the two noticing.
//
// A writer derives each block's summary from the postings it encodes
// (v2Writer.appendRows); a v2 load reads them from the file, and an
// in-memory index holds none.

// DefaultBlockSize is the number of postings per block. 128 keeps the
// per-block metadata under 1% of a typical compressed block while
// keeping the unit a streaming cursor decodes small next to a long list.
const DefaultBlockSize = 128

// BlockBounds summarises one block of a postings list: the embedded
// TermBounds fields describe exactly the postings of this block, and
// LastDoc is the block's final document — the key streaming cursors
// locate blocks by. The zero value is the correct summary of an empty
// block.
type BlockBounds struct {
	// LastDoc is the largest DocID in the block.
	LastDoc DocID
	TermBounds
}

// mergeBlockBounds recomposes the whole-list summary from per-block
// summaries. Block order is posting order and ties keep the earliest
// block (whose own argmax kept the earliest posting), so the merged
// ratio pair is the same pair boundsOf derives from the full list. Open
// and the per-block check compare all four fields; only MaxTF feeds a
// score bound, the other three are cross-checked for the layout's sake
// until ROADMAP item 4's format revision drops them.
func mergeBlockBounds(blocks []BlockBounds) TermBounds {
	var t TermBounds
	for i, b := range blocks {
		if b.MaxTF > t.MaxTF {
			t.MaxTF = b.MaxTF
		}
		if i == 0 || b.MinDL < t.MinDL {
			t.MinDL = b.MinDL
		}
		if i == 0 || int64(b.MaxRatioTF)*int64(t.MaxRatioDL) > int64(t.MaxRatioTF)*int64(b.MaxRatioDL) {
			t.MaxRatioTF, t.MaxRatioDL = b.MaxRatioTF, b.MaxRatioDL
		}
	}
	return t
}

// blockSizeOf returns the index's block size (DefaultBlockSize unless
// SetBlockSize or a v2 file chose another).
func (ix *Index) blockSizeOf() int {
	if ix.blockSize > 0 {
		return ix.blockSize
	}
	return DefaultBlockSize
}

// BlockSize returns the posting count per block of this index's v2
// form: what a file it was loaded from uses, or what writing it will.
func (ix *Index) BlockSize() int { return ix.blockSizeOf() }

// SetBlockSize overrides the block size an in-memory index is written
// with in FormatV2, from its next write on. It exists for tests and
// tuning experiments that need many short blocks on small corpora. An
// index loaded from a v2 file keeps the file's block size and refuses
// the call.
func (ix *Index) SetBlockSize(n int) error {
	if n < 1 || n > maxBlockSize {
		return errBlockSizeRange(n)
	}
	if ix.lazy != nil {
		return errors.New("index: SetBlockSize on an index loaded from a v2 file")
	}
	ix.blockSize = n
	return nil
}
