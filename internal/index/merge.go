package index

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/analysis"
)

// The compaction writer. A merge's output is defined as the FormatV2
// image of the monolithic index over the inputs' surviving documents,
// in input order — survivors renumbered by rank, every (term, doc)
// frequency and position list kept verbatim, term IDs assigned by first
// surviving occurrence across the inputs (merge_test.go keeps that
// definition, built in memory and encoded by encodeV2, as the reference
// the writer is held byte-identical to). writeMerged produces those
// bytes term by term without building the index, in three tiers:
//
//   - copy: a block of the first input whose documents all precede its
//     first tombstone keeps its documents' IDs (a survivor's rank is its
//     ID there) and its slot in the merged row, so its compressed bytes,
//     directory entry and CRC are the ones encodeV2 would write, and are
//     copied from the mapping undecoded;
//   - splice: such a block that is the term's short last block, when
//     only later inputs' postings follow it, is extended in place — its
//     docs region, the new doc deltas (the first against its LastDoc),
//     its freqs region, the new freqs, its positions region, the new
//     positions: only its 2n doc and freq varints are scanned, to find
//     the region boundaries, and its positions are never decoded;
//   - encode: every other posting — renumbered ones, later inputs' —
//     is decoded into one reused scratch row and encoded by encodeBlock.
//
// Copied bytes equal re-encoded ones because the inputs are files this
// package wrote: encodeBlock's varints are minimal, and a stored block
// summary is what blockOf derives from the same postings.

// mergeInput is one segment (plus its tombstones) entering a merge.
type mergeInput struct {
	ix   *Index
	dead DocSet
}

// mergeCounts counts a merge's output blocks by how they were written.
type mergeCounts struct {
	copied, spliced, encoded int64
}

// mergeSource is a mergeInput with the merge's view of it.
type mergeSource struct {
	mergeInput
	// remap maps a local DocID to its merged one, -1 when tombstoned;
	// base is the merged ID of the input's first survivor and firstDead
	// its lowest tombstoned DocID (NumDocs when none).
	remap     []int32
	base      int
	firstDead DocID
	// merged marks the input's terms already written under an earlier
	// input's occurrence of the same text.
	merged []uint64
}

// merger is the state of one writeMerged call.
type merger struct {
	out    *v2Writer
	srcs   []mergeSource
	row    Postings
	counts mergeCounts
}

// writeMerged writes the merge of ins to w — byte for byte what encodeV2
// writes for the reference's in-memory merge — counts its blocks by
// tier, and returns each input's map from local to merged DocID (-1
// when tombstoned). Every input must be an open FormatV2 segment, and
// stay mapped until the call returns.
func writeMerged(w io.Writer, a analysis.Analyzer, ins []mergeInput) (mergeCounts, [][]int32, error) {
	m := &merger{out: newV2Writer(a, DefaultBlockSize)}
	postCap := 0
	for i, in := range ins {
		lz := in.ix.lazy
		if lz == nil || lz.closed.Load() {
			return mergeCounts{}, nil, fmt.Errorf("index: merge input %d is not an open v2 segment", i)
		}
		n := in.ix.NumDocs()
		src := mergeSource{mergeInput: in, remap: make([]int32, n), base: m.out.numDocs, firstDead: DocID(n),
			merged: make([]uint64, (in.ix.NumTerms()+63)/64)}
		for id := range n {
			if in.dead.Has(DocID(id)) {
				src.remap[id] = -1
				src.firstDead = min(src.firstDead, DocID(id))
				continue
			}
			src.remap[id] = int32(m.out.numDocs)
			m.out.doc(in.ix.docNames[id], in.ix.docLens[id])
		}
		postCap += len(lz.post)
		m.srcs = append(m.srcs, src)
	}
	m.out.post = make([]byte, 0, postCap)
	for i := range m.srcs {
		src := &m.srcs[i]
		for t := range int32(src.ix.NumTerms()) {
			if src.merged[t>>6]&(1<<(t&63)) != 0 {
				continue
			}
			if err := m.term(i, t); err != nil {
				return mergeCounts{}, nil, err
			}
		}
	}
	if err := m.out.writeTo(w); err != nil {
		return mergeCounts{}, nil, err
	}
	remaps := make([][]int32, len(m.srcs))
	for i := range m.srcs {
		remaps[i] = m.srcs[i].remap
	}
	return m.counts, remaps, nil
}

// term writes the merged row of input i's term t, its first occurrence
// with survivors, gathering the same text from every later input; it
// writes nothing when t has no survivors in input i.
func (m *merger) term(i int, t int32) error {
	src := &m.srcs[i]
	lz, bbs, bs := src.ix.lazy, src.ix.blockBounds[t], m.out.bs
	df := int(lz.df[t])
	m.row.reset()

	// Blocks [0, from) keep their IDs and slots. All are copied now but a
	// short last block, which is held until the later inputs are known.
	from, held := 0, -1
	if src.base == 0 && lz.blockSz == bs {
		from = sort.Search(len(bbs), func(b int) bool { return bbs[b].LastDoc >= src.firstDead })
		copyN := from
		if from == len(bbs) && df%bs != 0 {
			copyN--
			held = copyN
		}
		for b := range copyN {
			m.copyBlock(src, t, b)
		}
	}
	rawCF, err := m.appendSurvivors(src, t, from)
	if err != nil {
		return err
	}
	if from == 0 && len(m.row.Docs) == 0 {
		return nil
	}
	// The carried blocks' totals: the stored ones less the decoded rest.
	var carriedDF int
	var carriedCF int64
	if from > 0 {
		carriedDF, carriedCF = min(from*bs, df), src.ix.cf[t]-rawCF
	}

	text := src.ix.termText[t]
	for k := i + 1; k < len(m.srcs); k++ {
		o := &m.srcs[k]
		if id, ok := o.ix.terms[text]; ok {
			o.merged[id>>6] |= 1 << (id & 63)
			if _, err := m.appendSurvivors(o, id, 0); err != nil {
				return err
			}
		}
	}

	lo := 0
	if held >= 0 {
		if len(m.row.Docs) == 0 {
			m.copyBlock(src, t, held)
		} else {
			lo = min(bs-(df-held*bs), len(m.row.Docs))
			if err := m.spliceBlock(src, t, held, lo); err != nil {
				return err
			}
		}
	}
	m.counts.encoded += int64(m.out.appendRows(&m.row, lo))
	m.out.endTerm(text, carriedDF+len(m.row.Docs), carriedCF+m.row.CollectionFreq())
	return nil
}

// copyBlock writes block b of src's term t as it stands. Its CRC is not
// re-verified: Open checked it, and the merged file's Open checks it
// again before anything is served from it.
func (m *merger) copyBlock(src *mergeSource, t int32, b int) {
	slot, buf, _, _ := src.ix.lazy.blockAt(src.ix, t, b)
	start := len(m.out.post)
	m.out.post = append(m.out.post, buf...)
	m.out.block(src.ix.blockBounds[t][b], start, src.ix.lazy.extents[slot].crc)
	m.counts.copied++
}

// spliceBlock writes block b of src's term t extended by the first n
// postings of the scratch row. The old bytes are CRC-checked first: the
// new checksum must not vouch for a corrupt block.
func (m *merger) spliceBlock(src *mergeSource, t int32, b, n int) error {
	lz := src.ix.lazy
	slot, buf, _, cnt := lz.blockAt(src.ix, t, b)
	if !lz.verifyBlock(slot, buf) {
		return fmt.Errorf("index: merge: term %q block %d checksum mismatch", src.ix.termText[t], b)
	}
	docsEnd, ok := skipUvarints(buf, 0, cnt)
	freqsEnd, ok2 := skipUvarints(buf, docsEnd, cnt)
	if !ok || !ok2 {
		return fmt.Errorf("index: merge: term %q block %d: truncated uvarint", src.ix.termText[t], b)
	}
	add := Postings{Docs: m.row.Docs[:n], Freqs: m.row.Freqs[:n], Positions: m.row.Positions[:n]}
	old := src.ix.blockBounds[t][b]
	w := m.out
	start := len(w.post)
	w.post = append(w.post, buf[:docsEnd]...)
	w.post = appendDocDeltas(w.post, add.Docs, old.LastDoc)
	w.post = append(w.post, buf[docsEnd:freqsEnd]...)
	w.post = appendFreqs(w.post, add.Freqs)
	w.post = append(w.post, buf[freqsEnd:]...)
	w.post = appendPositions(w.post, add.Positions)
	w.block(BlockBounds{LastDoc: add.Docs[n-1], MaxTF: max(old.MaxTF, maxTF(add.Freqs))}, start, crc32.ChecksumIEEE(w.post[start:]))
	m.counts.spliced++
	return nil
}

// skipUvarints returns the offset just past the n uvarints of buf that
// start at pos; ok is false when buf ends first.
func skipUvarints(buf []byte, pos, n int) (end int, ok bool) {
	for range n {
		_, w := binary.Uvarint(buf[pos:])
		if w <= 0 {
			return pos, false
		}
		pos += w
	}
	return pos, true
}

// appendSurvivors decodes blocks from on of src's term t onto the
// scratch row, keeping the live postings under their merged IDs, and
// returns the occurrences it decoded, tombstoned ones included.
func (m *merger) appendSurvivors(src *mergeSource, t int32, from int) (int64, error) {
	lz := src.ix.lazy
	k := len(m.row.Docs)
	for b := from; b < len(src.ix.blockBounds[t]); b++ {
		slot, buf, base, n := lz.blockAt(src.ix, t, b)
		if !lz.verifyBlock(slot, buf) {
			return 0, fmt.Errorf("index: merge: term %q block %d checksum mismatch", src.ix.termText[t], b)
		}
		if err := decodeBlockInto(buf, base, n, int32(len(src.ix.docLens)), &m.row.Docs, &m.row.Freqs, &m.row.Positions, nil); err != nil {
			return 0, fmt.Errorf("index: merge: term %q block %d: %w", src.ix.termText[t], b, err)
		}
	}
	var raw int64
	j := k
	for i := k; i < len(m.row.Docs); i++ {
		raw += int64(m.row.Freqs[i])
		if nd := src.remap[m.row.Docs[i]]; nd >= 0 {
			m.row.Docs[j], m.row.Freqs[j], m.row.Positions[j] = DocID(nd), m.row.Freqs[i], m.row.Positions[i]
			j++
		}
	}
	m.row.Docs, m.row.Freqs, m.row.Positions = m.row.Docs[:j], m.row.Freqs[:j], m.row.Positions[:j]
	return raw, nil
}
