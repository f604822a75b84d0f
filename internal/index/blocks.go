package index

import "errors"

// The block directory of the v2 on-disk format (v2.go). A postings list
// is stored as consecutive fixed-size blocks of DefaultBlockSize
// postings (the last block may be short); every block's directory entry
// carries its last document and its MaxTF. The directory does two jobs,
// and neither is a pruning tier (the pruned evaluator bounds a leaf by
// its whole list only; CHANGES.md records the measurement that retired
// per-block bounds):
//
//   - decode-skip granularity: a streaming cursor (stream.go) locates
//     the block that could hold its target through LastDoc and decodes
//     that block only, so the blocks a gallop jumps over are never read;
//   - the cross-check on the whole-list MaxTF: Open demands that it be
//     the largest block MaxTF, and a reader re-derives a block's MaxTF on
//     its first decode, so an untrusted file cannot understate the bound
//     MaxScore's safety rests on without one of the two noticing.
//
// A writer derives each block's MaxTF from the postings it encodes
// (v2Writer.appendRows); a v2 load reads them from the file, and an
// in-memory index holds none.

// DefaultBlockSize is the number of postings per block. 128 keeps the
// per-block metadata under 1% of a typical compressed block while
// keeping the unit a streaming cursor decodes small next to a long list.
const DefaultBlockSize = 128

// BlockBounds is one block's directory summary. The zero value is the
// correct summary of an empty block.
type BlockBounds struct {
	// LastDoc is the largest DocID in the block, the key streaming
	// cursors locate blocks by.
	LastDoc DocID
	// MaxTF is the largest term frequency in the block.
	MaxTF int32
}

// blockOf summarises the postings of one block.
func blockOf(docs []DocID, freqs []int32) BlockBounds {
	return BlockBounds{LastDoc: docs[len(docs)-1], MaxTF: maxTF(freqs)}
}

// listMaxTF is the whole-list MaxTF of a term stored as blocks.
func listMaxTF(blocks []BlockBounds) int32 {
	var m int32
	for _, b := range blocks {
		m = max(m, b.MaxTF)
	}
	return m
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
