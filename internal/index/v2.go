package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"

	"repro/internal/analysis"
)

// FormatV2: the block-compressed, mmap-able on-disk index.
//
//	magic "SQEBX\x01"
//	byte analyzer flags (bit0 stopwords, bit1 stemming)
//	4 × uint64 LE section lengths: docs, terms, blockdir, postings
//	uint32 LE crc32 of everything above (magic through lengths)
//	docs section     (crc32-trailed)
//	terms section    (crc32-trailed)
//	blockdir section (crc32-trailed)
//	postings section (per-block crc32s live in the block directory)
//
// Each metadata section ends with the IEEE CRC32 (LE) of its payload;
// the stated section length includes those 4 bytes. Section payloads:
//
//	docs:   uvarint numDocs; per doc: uvarint len(name), name, uvarint docLen
//	terms:  uvarint numTerms; uvarint blockSize; per term:
//	        uvarint len(text), text, uvarint df, uvarint cf,
//	        uvarint MaxTF, MinDL, MaxRatioTF, MaxRatioDL
//	dir:    per term, per block (numBlocks = ceil(df/blockSize)):
//	        uvarint lastDoc delta (absolute for the term's first block),
//	        uvarint MaxTF, MinDL, MaxRatioTF, MaxRatioDL,
//	        uvarint compressed byte length, uint32 LE crc32 of the bytes
//
// Block byte offsets are the running sum of the directory's lengths, in
// directory order, from the start of the postings section; the sum must
// land exactly on the section's end. Every block encodes:
//
//	docs:      delta-uvarints; the first document is delta-coded against
//	           the previous block's lastDoc (absolute in the term's first
//	           block), later ones against their predecessor, all deltas
//	           strictly positive past the first
//	freqs:     uvarint per document
//	positions: per document, freq delta-uvarints (first absolute)
//
// Loading (openV2) eagerly decodes only the three metadata sections —
// O(vocabulary + blocks), no per-posting work — cross-validates them
// (stored whole-list bounds must equal the merge of the stored block
// bounds; directory lengths must tile the postings section exactly) and
// CRC-scans the postings blocks, so flip/truncate corruption anywhere
// in the file fails Open deterministically. What Open validated is never
// written again. Postings are then read two ways, with one failure
// policy. Streaming block cursors (TermCursor.ResetStream, stream.go)
// serve every query, the forward index and Open(..., WithVerify()):
// term leaves, and — in positions mode, one
// cursor per constituent — the phrase and window intersections behind
// positional leaves. They decode one block at a time into a reused
// window and TRUST the stored, CRC-tied, Open-cross-validated directory
// for block selection and score bounds. readRow (index.go) decodes one
// whole term into a caller's scratch row, for re-encoding, the shard
// split and PostingsFor; the index keeps no row. Both re-derive each
// decoded block's summary and record a disagreement via Index.Err, so a
// CRC-consistent file whose bounds lie is detected the moment a
// lied-about block is decoded and the query degrades rather than
// silently dropping documents. WithVerify walks every term up front and
// fails Open on the first such record, the right mode for untrusted
// files.

var indexMagicV2 = []byte("SQEBX\x01")

const (
	// maxBlockSize bounds the stored block size; anything larger is a
	// hostile header (a block must fit comfortably in decode buffers).
	maxBlockSize = 1 << 20
	// maxFreq caps a stored per-posting frequency.
	maxFreq = 1 << 24
	// maxPosition bounds decoded token positions so hostile deltas
	// cannot overflow int32 accumulation.
	maxPosition = 1 << 30
)

// maxPrealloc bounds any allocation driven by a length prefix read from
// untrusted input. Slices are allocated with at most this capacity and
// grown by append as elements actually decode, so a truncated or corrupt
// file claiming billions of entries fails on EOF after a ~64K-element
// allocation instead of triggering a multi-GB make up front.
const maxPrealloc = 1 << 16

// prealloc converts a claimed element count into a safe initial capacity.
func prealloc(n uint64) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return int(n)
}

func errBlockSizeRange(n int) error {
	return fmt.Errorf("index: block size %d outside [1, %d]", n, maxBlockSize)
}

// lazyPostings is the decode-on-demand postings source behind a
// FormatV2 index: the mmap'd postings section plus the block directory
// locating and checksumming every block.
type lazyPostings struct {
	post    []byte        // postings section (a view into the mapping)
	extents []blockExtent // one per block, directory order
	starts  []int32       // per term: first extent index; len numTerms+1
	df      []int32       // per term: stored document frequency
	cf      []int64       // per term: stored collection frequency
	blockSz int
	crcOK   []uint32 // 1 bit per extent: block CRC re-verified since Open

	closeFn  func() error
	closed   atomic.Bool
	firstErr atomic.Pointer[error]
}

// blockExtent locates one compressed block inside the postings section.
type blockExtent struct {
	off  int64
	size int32
	crc  uint32
}

// verifyBlock checksums extent slot's bytes against the directory at
// most once per slot since Open. Open already bulk-verified every block,
// so the per-decode check only defends against the mapping changing
// under a live index — a once-per-block property, not a per-decode one.
// The first decode of a block (eager or streaming) re-verifies its CRC
// and sets the sticky bit; every later decode of the same block skips
// straight to parsing, which is what keeps repeated streaming decodes
// of a hot block off the checksum path.
func (lz *lazyPostings) verifyBlock(slot int, buf []byte) bool {
	word, bit := &lz.crcOK[slot>>5], uint32(1)<<(slot&31)
	if atomic.LoadUint32(word)&bit != 0 {
		return true
	}
	if crc32.ChecksumIEEE(buf) != lz.extents[slot].crc {
		return false
	}
	for {
		old := atomic.LoadUint32(word)
		if atomic.CompareAndSwapUint32(word, old, old|bit) {
			return true
		}
	}
}

func (lz *lazyPostings) close() error {
	if !lz.closed.CompareAndSwap(false, true) {
		return nil
	}
	if lz.closeFn == nil {
		return nil
	}
	return lz.closeFn()
}

func (lz *lazyPostings) err() error {
	if p := lz.firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (lz *lazyPostings) record(err error) {
	lz.firstErr.CompareAndSwap(nil, &err)
}

// blockAt locates block b of term id: its directory slot, its bytes, the
// document its first delta is coded against (the previous block's
// stored LastDoc; -1, absolute, for the term's first) and its posting
// count.
func (lz *lazyPostings) blockAt(ix *Index, id int32, b int) (slot int, buf []byte, base DocID, n int) {
	slot = int(lz.starts[id]) + b
	ext := lz.extents[slot]
	base = -1
	if b > 0 {
		base = ix.blockBounds[id][b-1].LastDoc
	}
	return slot, lz.post[ext.off : ext.off+int64(ext.size)], base, min(lz.blockSz, int(lz.df[id])-b*lz.blockSz)
}

// errBoundsLie is what a reader records when term id's block b decodes
// to another summary than the directory stores; errCFLie, when its
// frequencies sum to got, not the stored cf.
func errBoundsLie(ix *Index, id int32, b int) error {
	return fmt.Errorf("index: term %q block %d stored bounds disagree with its postings", ix.termText[id], b)
}

func errCFLie(ix *Index, id int32, got int64) error {
	return fmt.Errorf("index: term %q stored cf %d != decoded %d", ix.termText[id], ix.lazy.cf[id], got)
}

// decodeBlock decodes one compressed block (exactly n postings) into p
// and returns the bound summary derived from what it decoded: readRow's
// whole-row form of decodeBlockInto.
func decodeBlock(buf []byte, base DocID, n int, numDocs int32, docLens []int32, p *Postings) (BlockBounds, error) {
	var bb BlockBounds
	start := len(p.Docs)
	if err := decodeBlockInto(buf, base, n, numDocs, &p.Docs, &p.Freqs, &p.Positions, nil); err != nil {
		return bb, err
	}
	last := base // n == 0 decodes nothing; keep the caller's base
	if len(p.Docs) > start {
		last = p.Docs[len(p.Docs)-1]
	}
	sub := Postings{Docs: p.Docs[start:], Freqs: p.Freqs[start:]}
	bb = BlockBounds{LastDoc: last, TermBounds: boundsOf(&sub, docLens)}
	return bb, nil
}

// decodeBlockInto decodes one compressed block (exactly n postings),
// appending documents and frequencies to *docs and *freqs, validating
// structure as it goes: documents strictly ascend from base and stay
// inside the corpus, frequencies sit in (0, maxFreq], every position
// list has freq entries below maxPosition, and the block's bytes are
// consumed exactly. A nil positions pointer validates and discards the
// position data without allocating — the plain streaming cursor's mode.
// Otherwise the position lists are appended to *positions, all of them
// backed by one array: a fresh one per block when backing is nil (rows
// that outlive the call), else *backing, reused and grown in place — a
// positions-mode cursor's, which keeps its per-block decode
// allocation-free in steady state.
func decodeBlockInto(buf []byte, base DocID, n int, numDocs int32, docs *[]DocID, freqs *[]int32, positions *[][]int32, backing *[]int32) error {
	pos := 0
	read := func() (uint64, error) {
		// Nearly every value of a block — a gap, a frequency, a position
		// delta — fits one byte.
		if pos < len(buf) && buf[pos] < 0x80 {
			pos++
			return uint64(buf[pos-1]), nil
		}
		v, w := binary.Uvarint(buf[pos:])
		if w <= 0 {
			return 0, errors.New("truncated uvarint")
		}
		pos += w
		return v, nil
	}
	fstart := len(*freqs)
	prev := base
	for i := 0; i < n; i++ {
		dd, err := read()
		if err != nil {
			return fmt.Errorf("doc %d: %w", i, err)
		}
		// A larger delta would wrap in DocID's 32 bits — onto prev
		// itself, say — and pass the checks below.
		if dd >= uint64(numDocs) {
			return fmt.Errorf("doc %d: delta %d outside corpus of %d", i, dd, numDocs)
		}
		var doc DocID
		if prev < 0 {
			doc = DocID(dd)
		} else {
			if dd == 0 {
				return fmt.Errorf("doc %d: zero delta", i)
			}
			doc = prev + DocID(dd)
		}
		if doc < 0 || doc >= DocID(numDocs) || doc < prev {
			return fmt.Errorf("doc %d: id %d outside corpus of %d", i, doc, numDocs)
		}
		prev = doc
		*docs = append(*docs, doc)
	}
	for i := 0; i < n; i++ {
		f, err := read()
		if err != nil {
			return fmt.Errorf("freq %d: %w", i, err)
		}
		if f == 0 || f > maxFreq {
			return fmt.Errorf("freq %d: invalid value %d", i, f)
		}
		*freqs = append(*freqs, int32(f))
	}
	// One backing array holds the whole block's position lists, each
	// handed out as a full slice expression of it: a block costs at most
	// one allocation instead of one per posting. Rows are read-only, so
	// sharing a backing is safe. (Should the count exceed the prealloc
	// cap the backing regrows and earlier lists keep the old array.)
	var bk []int32
	if positions != nil {
		var total uint64
		for _, f := range (*freqs)[fstart:] {
			total += uint64(f)
		}
		if backing != nil {
			bk = (*backing)[:0]
		}
		if uint64(cap(bk)) < total {
			bk = make([]int32, 0, prealloc(total))
		}
	}
	for i := 0; i < n; i++ {
		f := (*freqs)[fstart+i]
		start := len(bk)
		prevPos := int32(0)
		for j := int32(0); j < f; j++ {
			pd, err := read()
			if err != nil {
				return fmt.Errorf("position %d/%d: %w", i, j, err)
			}
			pp := int32(pd)
			if j > 0 {
				pp = prevPos + int32(pd)
			}
			if pd > maxPosition || pp < 0 || pp > maxPosition {
				return fmt.Errorf("position %d/%d: value out of range", i, j)
			}
			prevPos = pp
			if positions != nil {
				bk = append(bk, pp)
			}
		}
		if positions != nil {
			*positions = append(*positions, bk[start:len(bk):len(bk)])
		}
	}
	if backing != nil && positions != nil {
		*backing = bk
	}
	if pos != len(buf) {
		return fmt.Errorf("%d trailing bytes", len(buf)-pos)
	}
	return nil
}

// encodeBlock appends the block encoding of postings rows [lo, hi) of p
// to dst, delta-coding the first document against base (absolute when
// base < 0). The three regions are separate appenders so a merge can
// splice new postings behind each region of an existing block.
func encodeBlock(dst []byte, p *Postings, lo, hi int, base DocID) []byte {
	dst = appendDocDeltas(dst, p.Docs[lo:hi], base)
	dst = appendFreqs(dst, p.Freqs[lo:hi])
	return appendPositions(dst, p.Positions[lo:hi])
}

// appendDocDeltas appends a block's docs region for docs, the first
// delta-coded against base (absolute when base < 0).
func appendDocDeltas(dst []byte, docs []DocID, base DocID) []byte {
	prev := base
	for _, doc := range docs {
		if prev < 0 {
			dst = binary.AppendUvarint(dst, uint64(doc))
		} else {
			dst = binary.AppendUvarint(dst, uint64(doc-prev))
		}
		prev = doc
	}
	return dst
}

// appendFreqs appends a block's freqs region.
func appendFreqs(dst []byte, freqs []int32) []byte {
	for _, f := range freqs {
		dst = binary.AppendUvarint(dst, uint64(f))
	}
	return dst
}

// appendPositions appends a block's positions region: per document, its
// positions delta-coded, the first absolute. A document's run depends
// on nothing but its own positions, which is why a merge can carry the
// region of a block it extends as it stands.
func appendPositions(dst []byte, positions [][]int32) []byte {
	for _, ps := range positions {
		prevPos := int32(0)
		for j, pos := range ps {
			pd := uint64(pos)
			if j > 0 {
				pd = uint64(pos - prevPos)
			}
			prevPos = pos
			dst = binary.AppendUvarint(dst, pd)
		}
	}
	return dst
}

// crcTrail appends a section payload's IEEE CRC32 (LE), producing the
// on-disk form of a metadata section.
func crcTrail(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload))
}

// v2Writer assembles a FormatV2 image: documents, then terms one at a
// time — each term's blocks, then its dictionary entry — and writeTo or
// image frames the sections with their counts, CRCs and the header. encodeV2,
// the compaction writer (merge.go) and the shard split (sharded.go) all
// write through it, so the layout above is written in one place.
type v2Writer struct {
	analyzer analysis.Analyzer
	bs       int
	// Section payloads without their leading counts: docs and terms
	// entries, directory entries, postings blocks.
	docs, terms, dir, post []byte
	numDocs, numTerms      int
	// blocks summarises the blocks written so far of the current term.
	blocks []BlockBounds
}

func newV2Writer(a analysis.Analyzer, bs int) *v2Writer {
	return &v2Writer{analyzer: a, bs: bs}
}

// doc appends the next document's entry.
func (w *v2Writer) doc(name string, dl int32) {
	w.docs = binary.AppendUvarint(w.docs, uint64(len(name)))
	w.docs = append(w.docs, name...)
	w.docs = binary.AppendUvarint(w.docs, uint64(dl))
	w.numDocs++
}

// lastDoc is the document the current term's next block is delta-coded
// against: the last block's LastDoc, or -1 (absolute) for its first.
func (w *v2Writer) lastDoc() DocID {
	if n := len(w.blocks); n > 0 {
		return w.blocks[n-1].LastDoc
	}
	return -1
}

// block records the directory entry of the current term's next block,
// whose bytes w.post holds from start on and whose checksum is crc.
func (w *v2Writer) block(bb BlockBounds, start int, crc uint32) {
	last := bb.LastDoc
	if len(w.blocks) > 0 {
		last -= w.lastDoc()
	}
	w.dir = binary.AppendUvarint(w.dir, uint64(last))
	for _, v := range [4]int32{bb.MaxTF, bb.MinDL, bb.MaxRatioTF, bb.MaxRatioDL} {
		w.dir = binary.AppendUvarint(w.dir, uint64(v))
	}
	w.dir = binary.AppendUvarint(w.dir, uint64(len(w.post)-start))
	w.dir = binary.LittleEndian.AppendUint32(w.dir, crc)
	w.blocks = append(w.blocks, bb)
}

// appendBlock encodes rows [lo, hi) of p, summarised by bb, as the
// current term's next block.
func (w *v2Writer) appendBlock(p *Postings, lo, hi int, bb BlockBounds) {
	start := len(w.post)
	w.post = encodeBlock(w.post, p, lo, hi, w.lastDoc())
	w.block(bb, start, crc32.ChecksumIEEE(w.post[start:]))
}

// appendRows encodes rows [lo, len(p.Docs)) of p as the current term's
// next blocks, each summarised from its own postings against docLens,
// and returns how many blocks it wrote.
func (w *v2Writer) appendRows(p *Postings, lo int, docLens []int32) int {
	nb := 0
	for ; lo < len(p.Docs); lo += w.bs {
		hi := min(lo+w.bs, len(p.Docs))
		sub := Postings{Docs: p.Docs[lo:hi], Freqs: p.Freqs[lo:hi]}
		w.appendBlock(p, lo, hi, BlockBounds{LastDoc: p.Docs[hi-1], TermBounds: boundsOf(&sub, docLens)})
		nb++
	}
	return nb
}

// endTerm appends the dictionary entry of the term whose blocks were
// just written. Its whole-list summary is the merge of its block
// summaries — exactly boundsOf over the whole row (mergeBlockBounds),
// and what Open demands of it.
func (w *v2Writer) endTerm(text string, df int, cf int64) {
	b := mergeBlockBounds(w.blocks)
	w.terms = binary.AppendUvarint(w.terms, uint64(len(text)))
	w.terms = append(w.terms, text...)
	w.terms = binary.AppendUvarint(w.terms, uint64(df))
	w.terms = binary.AppendUvarint(w.terms, uint64(cf))
	for _, v := range [4]int32{b.MaxTF, b.MinDL, b.MaxRatioTF, b.MaxRatioDL} {
		w.terms = binary.AppendUvarint(w.terms, uint64(v))
	}
	w.numTerms++
	w.blocks = w.blocks[:0]
}

// writeTo writes the image.
func (w *v2Writer) writeTo(out io.Writer) error {
	bw := bufio.NewWriter(out)
	for _, sec := range w.sections() {
		if _, err := bw.Write(sec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// image returns the image in one buffer of exactly its size.
func (w *v2Writer) image() []byte { return bytes.Join(w.sections(), nil) }

// sections frames the image, in file order: the header, CRC-trailed like
// the metadata sections so a flipped flags byte or length cannot open
// quietly, then the four sections.
func (w *v2Writer) sections() [][]byte {
	docsHead := binary.AppendUvarint(nil, uint64(w.numDocs))
	termsHead := binary.AppendUvarint(nil, uint64(w.numTerms))
	termsHead = binary.AppendUvarint(termsHead, uint64(w.bs))
	// A section's CRC covers its count and its entries.
	trailer := func(head, body []byte) []byte {
		crc := crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, body)
		return binary.LittleEndian.AppendUint32(nil, crc)
	}
	docsTail, termsTail := trailer(docsHead, w.docs), trailer(termsHead, w.terms)
	dir := crcTrail(w.dir)

	var flags byte
	if w.analyzer.RemoveStopwords {
		flags |= 1
	}
	if w.analyzer.Stem {
		flags |= 2
	}
	head := append([]byte(nil), indexMagicV2...)
	head = append(head, flags)
	for _, n := range [4]int{
		len(docsHead) + len(w.docs) + 4,
		len(termsHead) + len(w.terms) + 4,
		len(dir),
		len(w.post),
	} {
		head = binary.LittleEndian.AppendUint64(head, uint64(n))
	}
	head = crcTrail(head)
	return [][]byte{head, docsHead, w.docs, docsTail, termsHead, w.terms, termsTail, dir, w.post}
}

// encodeV2 writes ix in FormatV2 at its block size. Each term's row —
// an in-memory index's as it stands, a v2-backed one's decoded by
// readRow into one reused scratch row — is written by appendRows, which
// derives every block's summary from the postings it encodes.
func encodeV2(w io.Writer, ix *Index) error {
	vw := newV2Writer(ix.analyzer, ix.blockSizeOf())
	for d, name := range ix.docNames {
		vw.doc(name, ix.docLens[d])
	}
	vw.post = make([]byte, 0, postingsCap(ix, 1))
	var scratch Postings
	for id, text := range ix.termText {
		p := ix.readRow(int32(id), &scratch)
		vw.appendRows(p, 0, ix.docLens)
		vw.endTerm(text, len(p.Docs), p.CollectionFreq())
	}
	return vw.writeTo(w)
}

// postingsCap sizes the postings buffer of one of n images cut from ix.
// The postings section is by far the largest, so it is sized up front
// rather than doubled into: from a v2 index's own section, otherwise at
// about a byte per posting's delta, frequency and each of its positions.
// An eighth on top absorbs the estimate's error and the wider deltas of a
// split.
func postingsCap(ix *Index, n int) int64 {
	var size int64
	if ix.lazy != nil {
		size = int64(len(ix.lazy.post))
	} else {
		for tid := range ix.postings {
			p := &ix.postings[tid]
			size += 2*int64(len(p.Docs)) + p.CollectionFreq()
		}
	}
	size /= int64(n)
	return size + size/8
}

// sectionReader walks one CRC-trailed metadata section.
type sectionReader struct {
	buf  []byte
	pos  int
	name string
}

func newSection(data []byte, name string) (*sectionReader, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("index: %s section too short (%d bytes)", name, len(data))
	}
	payload, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("index: %s section checksum mismatch", name)
	}
	return &sectionReader{buf: payload, name: name}, nil
}

func (s *sectionReader) uvarint(what string) (uint64, error) {
	v, w := binary.Uvarint(s.buf[s.pos:])
	if w <= 0 {
		return 0, fmt.Errorf("index: %s section: truncated %s", s.name, what)
	}
	s.pos += w
	return v, nil
}

func (s *sectionReader) bytes(n uint64, what string) ([]byte, error) {
	if n > uint64(len(s.buf)-s.pos) {
		return nil, fmt.Errorf("index: %s section: %s length %d overruns section", s.name, what, n)
	}
	b := s.buf[s.pos : s.pos+int(n)]
	s.pos += int(n)
	return b, nil
}

func (s *sectionReader) u32() (uint32, error) {
	if len(s.buf)-s.pos < 4 {
		return 0, fmt.Errorf("index: %s section: truncated u32", s.name)
	}
	v := binary.LittleEndian.Uint32(s.buf[s.pos:])
	s.pos += 4
	return v, nil
}

func (s *sectionReader) done() error {
	if s.pos != len(s.buf) {
		return fmt.Errorf("index: %s section: %d trailing bytes", s.name, len(s.buf)-s.pos)
	}
	return nil
}

// openV2 builds a lazily-decoding Index over a complete FormatV2 image
// (an mmap'd file; closeFn unmaps it). On any validation failure the
// mapping is closed and an error returned.
func openV2(data []byte, closeFn func() error) (*Index, error) {
	ix, err := parseV2(data, closeFn)
	if err != nil {
		if closeFn != nil {
			closeFn()
		}
		return nil, err
	}
	return ix, nil
}

func parseV2(data []byte, closeFn func() error) (*Index, error) {
	headLen := len(indexMagicV2) + 1 + 4*8 + 4
	if len(data) < headLen {
		return nil, fmt.Errorf("index: file too short (%d bytes)", len(data))
	}
	if string(data[:len(indexMagicV2)]) != string(indexMagicV2) {
		return nil, fmt.Errorf("index: bad magic %q", data[:len(indexMagicV2)])
	}
	if crc32.ChecksumIEEE(data[:headLen-4]) != binary.LittleEndian.Uint32(data[headLen-4:]) {
		return nil, errors.New("index: header checksum mismatch")
	}
	flags := data[len(indexMagicV2)]
	var secLen [4]uint64
	off := len(indexMagicV2) + 1
	var total uint64 = uint64(headLen)
	for i := range secLen {
		secLen[i] = binary.LittleEndian.Uint64(data[off:])
		off += 8
		total += secLen[i]
		if total > uint64(len(data)) {
			return nil, fmt.Errorf("index: section lengths overrun file (%d > %d)", total, len(data))
		}
	}
	if total != uint64(len(data)) {
		return nil, fmt.Errorf("index: sections cover %d of %d bytes", total, len(data))
	}
	off += 4 // the header CRC; sections start after it
	cut := func(n uint64) []byte {
		b := data[off : off+int(n)]
		off += int(n)
		return b
	}
	docsSec, termsSec, dirSec := cut(secLen[0]), cut(secLen[1]), cut(secLen[2])
	post := cut(secLen[3])

	ix := &Index{
		analyzer: analysis.Analyzer{RemoveStopwords: flags&1 != 0, Stem: flags&2 != 0},
		terms:    make(map[string]int32),
	}

	// Docs.
	ds, err := newSection(docsSec, "docs")
	if err != nil {
		return nil, err
	}
	numDocs, err := ds.uvarint("doc count")
	if err != nil {
		return nil, err
	}
	if numDocs > 1<<31 {
		return nil, fmt.Errorf("index: doc count %d exceeds limit", numDocs)
	}
	ix.docNames = make([]string, 0, prealloc(numDocs))
	ix.docLens = make([]int32, 0, prealloc(numDocs))
	for d := uint64(0); d < numDocs; d++ {
		nl, err := ds.uvarint("doc name length")
		if err != nil {
			return nil, err
		}
		if nl > 1<<16 {
			return nil, fmt.Errorf("index: doc name length %d exceeds limit", nl)
		}
		name, err := ds.bytes(nl, "doc name")
		if err != nil {
			return nil, err
		}
		dl, err := ds.uvarint("doc length")
		if err != nil {
			return nil, err
		}
		if dl > 1<<31 {
			return nil, fmt.Errorf("index: doc %d length %d out of range", d, dl)
		}
		ix.docNames = append(ix.docNames, string(name))
		ix.docLens = append(ix.docLens, int32(dl))
		ix.totalToks += int64(dl)
	}
	if err := ds.done(); err != nil {
		return nil, err
	}

	// Terms.
	ts, err := newSection(termsSec, "terms")
	if err != nil {
		return nil, err
	}
	numTerms, err := ts.uvarint("term count")
	if err != nil {
		return nil, err
	}
	if numTerms > 1<<31 {
		return nil, fmt.Errorf("index: term count %d exceeds limit", numTerms)
	}
	bsz, err := ts.uvarint("block size")
	if err != nil {
		return nil, err
	}
	if bsz < 1 || bsz > maxBlockSize {
		return nil, errBlockSizeRange(int(bsz))
	}
	bs := int(bsz)
	ix.blockSize = bs
	ix.termText = make([]string, 0, prealloc(numTerms))
	ix.termBounds = make([]TermBounds, 0, prealloc(numTerms))
	dfs := make([]int32, 0, prealloc(numTerms))
	cfs := make([]int64, 0, prealloc(numTerms))
	totalBlocks := 0
	for t := uint64(0); t < numTerms; t++ {
		tl, err := ts.uvarint("term length")
		if err != nil {
			return nil, err
		}
		if tl > 1<<16 {
			return nil, fmt.Errorf("index: term length %d exceeds limit", tl)
		}
		tb, err := ts.bytes(tl, "term")
		if err != nil {
			return nil, err
		}
		text := string(tb)
		if _, dup := ix.terms[text]; dup {
			return nil, fmt.Errorf("index: duplicate term %q", text)
		}
		df, err := ts.uvarint("df")
		if err != nil {
			return nil, err
		}
		if df > numDocs {
			return nil, fmt.Errorf("index: term %q has %d postings for %d docs", text, df, numDocs)
		}
		cf, err := ts.uvarint("cf")
		if err != nil {
			return nil, err
		}
		if cf < df || cf > df*maxFreq {
			return nil, fmt.Errorf("index: term %q cf %d inconsistent with df %d", text, cf, df)
		}
		var b TermBounds
		for _, field := range [4]*int32{&b.MaxTF, &b.MinDL, &b.MaxRatioTF, &b.MaxRatioDL} {
			v, err := ts.uvarint("bound")
			if err != nil {
				return nil, err
			}
			if v > 1<<31-1 {
				return nil, fmt.Errorf("index: term %q bound value %d out of range", text, v)
			}
			*field = int32(v)
		}
		ix.terms[text] = int32(t)
		ix.termText = append(ix.termText, text)
		ix.termBounds = append(ix.termBounds, b)
		dfs = append(dfs, int32(df))
		cfs = append(cfs, int64(cf))
		totalBlocks += (int(df) + bs - 1) / bs
	}
	if err := ts.done(); err != nil {
		return nil, err
	}

	// Block directory.
	dirs, err := newSection(dirSec, "blockdir")
	if err != nil {
		return nil, err
	}
	lz := &lazyPostings{
		post:    post,
		extents: make([]blockExtent, 0, totalBlocks),
		starts:  make([]int32, len(ix.termText)+1),
		blockSz: bs,
		closeFn: closeFn,
	}
	flatBounds := make([]BlockBounds, 0, totalBlocks)
	ix.blockBounds = make([][]BlockBounds, len(ix.termText))
	var postOff int64
	for tid := range ix.termText {
		lz.starts[tid] = int32(len(lz.extents))
		nb := (int(dfs[tid]) + bs - 1) / bs
		prevLast := DocID(-1)
		from := len(flatBounds)
		for b := 0; b < nb; b++ {
			ld, err := dirs.uvarint("lastDoc")
			if err != nil {
				return nil, err
			}
			var last DocID
			if b == 0 {
				last = DocID(ld)
			} else {
				if ld == 0 {
					return nil, fmt.Errorf("index: term %q block %d repeats lastDoc", ix.termText[tid], b)
				}
				last = prevLast + DocID(ld)
			}
			if last < 0 || uint64(last) >= numDocs {
				return nil, fmt.Errorf("index: term %q block %d lastDoc %d outside corpus", ix.termText[tid], b, last)
			}
			prevLast = last
			var bb BlockBounds
			bb.LastDoc = last
			for _, field := range [4]*int32{&bb.MaxTF, &bb.MinDL, &bb.MaxRatioTF, &bb.MaxRatioDL} {
				v, err := dirs.uvarint("block bound")
				if err != nil {
					return nil, err
				}
				if v > 1<<31-1 {
					return nil, fmt.Errorf("index: term %q block bound %d out of range", ix.termText[tid], v)
				}
				*field = int32(v)
			}
			blen, err := dirs.uvarint("block length")
			if err != nil {
				return nil, err
			}
			if blen == 0 || blen > uint64(len(post))-uint64(postOff) {
				return nil, fmt.Errorf("index: term %q block %d length %d overruns postings section", ix.termText[tid], b, blen)
			}
			crc, err := dirs.u32()
			if err != nil {
				return nil, err
			}
			lz.extents = append(lz.extents, blockExtent{off: postOff, size: int32(blen), crc: crc})
			flatBounds = append(flatBounds, bb)
			postOff += int64(blen)
		}
		ix.blockBounds[tid] = flatBounds[from:len(flatBounds):len(flatBounds)]
		// The whole-list summary must be exactly the merge of its blocks;
		// a mismatch means one of the two CRC-valid sections lies.
		if dfs[tid] > 0 && mergeBlockBounds(ix.blockBounds[tid]) != ix.termBounds[tid] {
			return nil, fmt.Errorf("index: term %q stored bounds disagree with its block directory", ix.termText[tid])
		}
		if dfs[tid] == 0 && ix.termBounds[tid] != (TermBounds{}) {
			return nil, fmt.Errorf("index: empty term %q has non-zero bounds", ix.termText[tid])
		}
	}
	lz.starts[len(ix.termText)] = int32(len(lz.extents))
	if err := dirs.done(); err != nil {
		return nil, err
	}
	if postOff != int64(len(post)) {
		return nil, fmt.Errorf("index: block directory covers %d of %d postings bytes", postOff, len(post))
	}

	// CRC-scan the postings blocks: pure sequential checksumming, no
	// decode, no allocation — this is what turns random corruption
	// anywhere in the file into a deterministic Open failure while
	// startup stays free of per-posting work.
	for i, ext := range lz.extents {
		if crc32.ChecksumIEEE(post[ext.off:ext.off+int64(ext.size)]) != ext.crc {
			return nil, fmt.Errorf("index: postings block %d checksum mismatch", i)
		}
	}

	ix.minDocLen = minDocLenOf(ix.docLens)
	lz.df = dfs
	lz.cf = cfs
	lz.crcOK = make([]uint32, (len(lz.extents)+31)/32)
	ix.lazy = lz
	return ix, nil
}
