package index

import (
	"encoding/binary"
	"fmt"
	"math"
)

// DocEnd is the sentinel a cursor reports once its postings list is
// exhausted; it compares greater than every valid DocID.
const DocEnd = DocID(math.MaxInt32)

// TermCursor walks one term's postings in document order behind a
// uniform interface with two backings:
//
//   - slice mode (Reset): a window over a fully materialised postings
//     row — in-memory indexes, phrase/window leaves;
//   - stream mode (ResetStream; positions mode, for phrase and window
//     fills, decodes each block's position lists too): one
//     ~blockSize-document block of a FormatV2 term decoded at a time,
//     directly from the mmap'd postings section. Advance consults the block directory to skip
//     whole blocks without decoding them, and moving onto a block whose
//     first document already satisfies the target parks the cursor
//     there pending — reading only the block's first uvarint — so a
//     merely-peeked block costs no decode at all. Decode happens lazily
//     on the first Freq/Positions/Next/in-block landing, with the same per-block
//     CRC check and bound re-derivation as readRow; failures are
//     recorded on the index (Index.Err) and exhaust the cursor instead
//     of panicking.
//
// Rank/Len expose the cursor's absolute position so callers can account
// skipped postings exactly as the materialised evaluator did; Decoded
// counts the blocks this cursor actually paid to decode (the numerator
// of SearchStats.BlocksDecoded).
//
// A TermCursor is single-goroutine state. The decode window backing,
// positions included, is retained across Reset/ResetStream/Release,
// which is what makes pooled reuse allocation-free in steady state.
type TermCursor struct {
	// Current decode window (stream mode) or the whole row (slice mode).
	docs  []DocID
	freqs []int32
	pos   [][]int32 // the row's positions, or the block's in positions mode
	j     int       // position inside docs
	cur   DocID     // docs[j], or the peeked block-first doc, or DocEnd

	// Stream-mode state; ix == nil means slice mode.
	ix      *Index
	id      int32
	blocks  []BlockBounds
	blk     int  // current block ordinal
	loaded  bool // docs/freqs hold block blk (false: parked on its first doc)
	n       int  // total postings (df)
	blockSz int
	withPos bool // positions mode: blocks decode their position lists too
	// failed records that a block failed its checks and exhausted the
	// cursor early, which DocEnd alone does not tell apart from the end.
	failed bool

	// Reusable decode backing; survives Reset and Release.
	wdocs  []DocID
	wfreqs []int32
	wpos   [][]int32
	wposBk []int32 // one array behind every list of wpos

	// Decoded counts blocks this cursor decoded since its last Reset.
	Decoded int64
}

// Reset points the cursor at a fully materialised postings row. p may
// be nil or empty (an OOV leaf); the cursor starts exhausted then.
func (c *TermCursor) Reset(p *Postings) {
	c.ix = nil
	c.blocks = nil
	c.blk = 0
	c.loaded = true
	c.j = 0
	c.Decoded = 0
	c.failed = false
	if p == nil || len(p.Docs) == 0 {
		c.docs, c.freqs, c.pos = nil, nil, nil
		c.n = 0
		c.cur = DocEnd
		c.loaded = false // guarded slow paths; see exhaust
		return
	}
	c.docs, c.freqs, c.pos = p.Docs, p.Freqs, p.Positions
	c.n = len(p.Docs)
	c.cur = p.Docs[0]
}

// ResetStream points the cursor at term id of a FormatV2-backed index,
// parked on the first document of the first block without decoding it.
// The index must be lazy-backed (StreamableTerm reported true).
func (c *TermCursor) ResetStream(ix *Index, id int32) { c.resetStream(ix, id, false) }

// resetTerm points the cursor at term id as ix serves it: streaming on
// a v2-backed index, over the term's row otherwise. withPos selects
// positions mode for a stream: every block the cursor decodes also
// yields its position lists, which Positions serves.
func (c *TermCursor) resetTerm(ix *Index, id int32, withPos bool) {
	if ix.lazy == nil {
		c.Reset(&ix.postings[id])
		return
	}
	c.resetStream(ix, id, withPos)
}

func (c *TermCursor) resetStream(ix *Index, id int32, withPos bool) {
	lz := ix.lazy
	c.ix = ix
	c.id = id
	c.blocks = ix.blockBounds[id]
	c.blockSz = lz.blockSz
	c.n = int(lz.df[id])
	c.docs, c.freqs, c.pos = nil, nil, nil
	c.j = 0
	c.blk = 0
	c.loaded = false
	c.withPos = withPos
	c.failed = false
	c.Decoded = 0
	if c.n == 0 {
		c.exhaust()
		return
	}
	c.moveToBlock(0)
}

// Doc returns the current document, DocEnd once exhausted.
func (c *TermCursor) Doc() DocID { return c.cur }

// Len returns the term's total postings count (its df).
func (c *TermCursor) Len() int { return c.n }

// NumBlocks returns the term's block count (0 in slice mode) — the
// denominator of the decoded-block fraction.
func (c *TermCursor) NumBlocks() int { return len(c.blocks) }

// Rank returns the cursor's absolute position in the postings list:
// the number of postings strictly before the current document, or Len
// once exhausted. The materialised evaluator's flat index, reproduced
// without requiring the skipped-over blocks to be decoded.
func (c *TermCursor) Rank() int {
	if c.cur == DocEnd {
		return c.n
	}
	if c.ix != nil {
		return c.blk*c.blockSz + c.j
	}
	return c.j
}

// Freq returns the term frequency at the current document, decoding the
// parked block on first touch. Only meaningful while Doc() != DocEnd.
func (c *TermCursor) Freq() int32 {
	if c.loaded {
		return c.freqs[c.j]
	}
	return c.freqSlow()
}

func (c *TermCursor) freqSlow() int32 {
	if c.cur == DocEnd {
		return 0 // exhausted (or degraded) cursors have no frequency
	}
	if !c.ensureLoaded() {
		return 0
	}
	return c.freqs[c.j]
}

// Positions returns the term's token positions in the current document,
// ascending; nil once the cursor is exhausted (or a decode failed). A
// slice-mode cursor serves its row's Positions; a stream-mode cursor
// must be in positions mode, and decodes the parked block on first touch
// as Freq does. The slice is read-only and, in stream mode, valid until
// the cursor leaves the block.
func (c *TermCursor) Positions() []int32 {
	if c.cur == DocEnd || !c.ensureLoaded() {
		return nil
	}
	return c.pos[c.j]
}

// Next advances to the following posting and returns its document
// (DocEnd at the end of the list).
func (c *TermCursor) Next() DocID {
	if j := c.j + 1; c.loaded && j < len(c.docs) {
		c.j = j
		c.cur = c.docs[j]
		return c.cur
	}
	return c.nextSlow()
}

func (c *TermCursor) nextSlow() DocID {
	if c.cur == DocEnd {
		return DocEnd
	}
	if !c.ensureLoaded() {
		return c.cur
	}
	if j := c.j + 1; j < len(c.docs) {
		c.j = j
		c.cur = c.docs[j]
		return c.cur
	}
	if c.ix == nil {
		c.exhaust()
		return DocEnd
	}
	c.moveToBlock(c.blk + 1)
	return c.cur
}

// PeekNext returns the document after the current one without moving
// the cursor — the one-ahead refinement peek the candidate filter uses.
// Crossing into the next block reads only its first uvarint.
func (c *TermCursor) PeekNext() DocID {
	if c.loaded {
		if j := c.j + 1; j < len(c.docs) {
			return c.docs[j]
		}
	}
	return c.peekNextSlow()
}

func (c *TermCursor) peekNextSlow() DocID {
	if c.cur == DocEnd {
		return DocEnd
	}
	if !c.ensureLoaded() {
		return DocEnd
	}
	if j := c.j + 1; j < len(c.docs) {
		return c.docs[j]
	}
	if c.ix == nil || c.blk+1 >= len(c.blocks) {
		return DocEnd
	}
	if first, ok := c.peekFirst(c.blk + 1); ok {
		return first
	}
	// The next block's header is unreadable; run the real decoder over
	// it so the canonical error lands on the index, then report the
	// list as ended (the next Advance/Next will exhaust the same way).
	c.recordBlockError(c.blk + 1)
	return DocEnd
}

// Advance moves the cursor forward until Doc() >= target and returns
// the landing document; it never moves backwards. In stream mode the
// block directory is consulted first, so blocks wholly below target are
// skipped without being decoded.
func (c *TermCursor) Advance(target DocID) DocID {
	if c.cur >= target {
		return c.cur
	}
	return c.advanceSlow(target)
}

func (c *TermCursor) advanceSlow(target DocID) DocID {
	if c.ix == nil {
		j := advance(c.docs, c.j, target)
		if j >= len(c.docs) {
			c.exhaust()
			return DocEnd
		}
		c.j = j
		c.cur = c.docs[j]
		return c.cur
	}
	if c.loaded {
		if n := len(c.docs); n > 0 && target <= c.docs[n-1] {
			j := advance(c.docs, c.j, target)
			c.j = j
			c.cur = c.docs[j]
			return c.cur
		}
		return c.enterBlock(c.findBlockFrom(c.blk+1, target), target)
	}
	// Parked: the pending block itself may contain the target.
	from := c.blk
	if target > c.blocks[c.blk].LastDoc {
		from = c.blk + 1
	}
	return c.enterBlock(c.findBlockFrom(from, target), target)
}

// findBlockFrom returns the first block ordinal in [from, numBlocks)
// whose LastDoc >= target — the block the directory says contains the
// first posting >= target — or numBlocks when the list is exhausted.
func (c *TermCursor) findBlockFrom(from int, target DocID) int {
	lo, hi := from, len(c.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.blocks[mid].LastDoc < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// enterBlock positions the cursor on the first posting >= target, whose
// block the directory claims is b. When target precedes the block's
// first document the cursor parks there without decoding; otherwise the
// block is decoded and galloped. A block whose stored LastDoc overstated
// its contents (recorded by the bound re-derivation) falls through to
// the next one.
func (c *TermCursor) enterBlock(b int, target DocID) DocID {
	for ; b < len(c.blocks); b++ {
		if first, ok := c.peekFirst(b); ok && target <= first {
			c.blk, c.j, c.loaded = b, 0, false
			c.docs, c.freqs, c.pos = nil, nil, nil
			c.cur = first
			return first
		}
		c.blk, c.j, c.loaded = b, 0, false
		if !c.loadBlock(b) {
			return c.cur // exhausted; error recorded on the index
		}
		if j := advance(c.docs, 0, target); j < len(c.docs) {
			c.j = j
			c.cur = c.docs[j]
			return c.cur
		}
	}
	c.exhaust()
	return DocEnd
}

// moveToBlock parks the cursor on block b's first document (decoding
// nothing), or exhausts it past the last block.
func (c *TermCursor) moveToBlock(b int) {
	if b >= len(c.blocks) {
		c.exhaust()
		return
	}
	c.blk, c.j, c.loaded = b, 0, false
	c.docs, c.freqs, c.pos = nil, nil, nil
	if first, ok := c.peekFirst(b); ok {
		c.cur = first
		return
	}
	// Header unreadable: decode for the canonical error, then die.
	if c.loadBlock(b) {
		c.cur = c.docs[0]
	}
}

// peekFirst reads block b's first document from its leading uvarint
// without decoding (or CRC-checking) the block. ok is false when the
// index is closed or the header is structurally unreadable; callers
// then route through loadBlock, which surfaces the canonical error.
func (c *TermCursor) peekFirst(b int) (DocID, bool) {
	lz := c.ix.lazy
	if lz.closed.Load() {
		return 0, false
	}
	ext := lz.extents[int(lz.starts[c.id])+b]
	buf := lz.post[ext.off : ext.off+int64(ext.size)]
	dd, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, false
	}
	var doc DocID
	if b == 0 {
		doc = DocID(dd)
	} else {
		if dd == 0 {
			return 0, false
		}
		doc = c.blocks[b-1].LastDoc + DocID(dd)
	}
	if doc < 0 || doc >= DocID(len(c.ix.docLens)) {
		return 0, false
	}
	return doc, true
}

// decodeStream decodes block b into the given slices, with the same
// closed-index guard, CRC check, structural validation and error
// taxonomy as readRow. Positions are always validated;
// they are kept only when positions is non-nil, in the cursor's reused
// backing.
func (c *TermCursor) decodeStream(b int, docs *[]DocID, freqs *[]int32, positions *[][]int32) error {
	ix := c.ix
	lz := ix.lazy
	if lz.closed.Load() {
		return fmt.Errorf("index: term %q streamed after Close", ix.termText[c.id])
	}
	slot, buf, base, n := lz.blockAt(ix, c.id, b)
	if !lz.verifyBlock(slot, buf) {
		return fmt.Errorf("index: term %q block %d checksum mismatch", ix.termText[c.id], b)
	}
	if err := decodeBlockInto(buf, base, n, int32(len(ix.docLens)), docs, freqs, positions, &c.wposBk); err != nil {
		return fmt.Errorf("index: term %q block %d: %w", ix.termText[c.id], b, err)
	}
	return nil
}

// loadBlock decodes block b into the reusable window and re-derives its
// bound summary, recording a disagreement with the directory as readRow
// does. On decode failure the error is recorded and the cursor exhausts
// (the term degrades, it does not panic).
func (c *TermCursor) loadBlock(b int) bool {
	c.wdocs = c.wdocs[:0]
	c.wfreqs = c.wfreqs[:0]
	var pos *[][]int32
	if c.withPos {
		c.wpos = c.wpos[:0]
		pos = &c.wpos
	}
	if err := c.decodeStream(b, &c.wdocs, &c.wfreqs, pos); err != nil {
		c.ix.lazy.record(err)
		c.failed = true
		c.exhaust()
		return false
	}
	c.Decoded++
	sub := Postings{Docs: c.wdocs, Freqs: c.wfreqs}
	derived := BlockBounds{LastDoc: c.wdocs[len(c.wdocs)-1], TermBounds: boundsOf(&sub, c.ix.docLens)}
	if derived != c.blocks[b] {
		// The stored values stay: other cursors read them concurrently,
		// and may already have pruned by them. A lying directory
		// degrades the index instead, through Index.Err.
		c.ix.lazy.record(errBoundsLie(c.ix, c.id, b))
	}
	c.docs, c.freqs = c.wdocs, c.wfreqs
	if c.withPos {
		c.pos = c.wpos
	}
	c.blk = b
	c.loaded = true
	return true
}

// recordBlockError runs the decoder over block b purely to land its
// canonical error on the index (used when a peek fails off-path).
func (c *TermCursor) recordBlockError(b int) {
	var docs []DocID
	var freqs []int32
	if err := c.decodeStream(b, &docs, &freqs, nil); err != nil {
		c.ix.lazy.record(err)
	}
}

// ensureLoaded decodes the parked block in place; false means the
// decode failed and the cursor is now exhausted.
func (c *TermCursor) ensureLoaded() bool {
	if c.loaded {
		return true
	}
	if !c.loadBlock(c.blk) {
		return false
	}
	c.cur = c.docs[c.j]
	return true
}

// exhaust parks the cursor on DocEnd. loaded goes false so every
// accessor routes through its guarded slow path (the fast paths index
// the decode window, which is gone) — Freq/Next/PeekNext on an
// exhausted cursor are inert, not a panic.
func (c *TermCursor) exhaust() {
	c.cur = DocEnd
	c.loaded = false
	c.docs, c.freqs, c.pos = nil, nil, nil
	c.j = 0
}

// Release drops references into the index and its mapping (so a pooled
// cursor cannot pin a closed index) while keeping the decode backing
// for reuse.
func (c *TermCursor) Release() {
	c.ix = nil
	c.docs, c.freqs, c.pos = nil, nil, nil
	c.blocks = nil
	c.n = 0
	c.cur = DocEnd
	c.loaded = false // guarded slow paths; see exhaust
	c.j = 0
	c.Decoded = 0
}
