package index

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// The parity table. SQE's expanded queries are weighted term, #1(...)
// and #uwN(...) leaves, so every kind of index this package serves — one
// built in memory, a FormatV2 file or heap image, the shards of a split,
// a merge, a compaction that carried its inputs' positional memos, a
// flushed segment, a sealed ingest buffer — must answer exactly as the
// Builder's index of the documents it holds: the same corpus shape, rows,
// stored statistics, block directory, cursor walks, positional leaves and
// forward vectors. It is stated here once: parityKinds lists the kinds,
// parityCorpora the corpora, and TestIndexParity builds every kind over
// every corpus and holds each index the kind yields to its reference,
// joined on term text, with checkPart. The corruption, close, manifest,
// concurrency, allocation, durability and fault tests live beside the
// code they exercise; the phrase and window unit tests define the
// positional reference this table compares against.

// ---- corpora ----

// parityCorpus is a named corpus and the phrase and window keys its
// rows resolve.
type parityCorpus struct {
	name string
	docs []segDoc
	keys []positionalKey
	// generated marks the seeded corpora, the ones the evidence floors
	// are taken over.
	generated bool
}

// parityCorpora are the edge corpora — none, one document, one-posting
// terms beside an empty document, a tf-40 document after 40 ordinary
// ones — and segCorpus at the seeds and sizes the tests this table
// replaced drew, the largest with rows of five 128-posting blocks.
func parityCorpora() []parityCorpus {
	singletons := make([]segDoc, 12)
	for i := range singletons {
		singletons[i] = segDoc{name: fmt.Sprintf("S%02d", i), text: fmt.Sprintf("s%d t%d s%d", i, i, i)}
	}
	singletons[5].text = ""
	// The hot document raises term a's largest tf past every other's and
	// lands where the kinds cut the corpus (cutAt): first in a merge's
	// second input, first after a live buffer's early seal.
	hot := slices.Insert(segCorpus(60, 3), 40, segDoc{name: "hot", text: strings.Repeat("a ", 40)})
	out := []parityCorpus{
		{name: "empty"},
		{name: "one-doc", docs: []segDoc{{"D00000", "a b a c b a"}}},
		{name: "singletons", docs: singletons},
		{name: "hot", docs: hot, generated: true},
	}
	for _, c := range []struct{ seed, n int }{{1, 160}, {2, 200}, {3, 240}, {17, 120}, {23, 150}, {37, 340}, {42, 200}, {27, 700}} {
		out = append(out, parityCorpus{name: fmt.Sprintf("seeded-%d", c.seed), docs: segCorpus(c.n, c.seed), generated: true})
	}
	for i := range out {
		out[i].keys = parityKeys(int64(i + 1))
	}
	return out
}

// parityKeys is positionalKeys plus the keys compactedWarm's special
// documents give meaning to: qq rr, every match of which is deleted
// while both terms survive; yy, which survives nowhere; and g, which one
// of the compaction's inputs lacks.
func parityKeys(seed int64) []positionalKey {
	var keys []positionalKey
	seen := map[string]bool{}
	for _, k := range append(positionalKeys(rand.New(rand.NewSource(seed)), 80),
		positionalKey{terms: []string{"qq", "rr"}}, positionalKey{terms: []string{"qq", "rr"}, window: 2},
		positionalKey{terms: []string{"yy", "b"}}, positionalKey{terms: []string{"g", "a"}},
		positionalKey{terms: []string{"a", "g"}, window: 3}) {
		if !seen[k.String()] {
			seen[k.String()] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// cutAt is where the kinds that take a corpus in two parts cut it.
func cutAt(docs []segDoc) int { return len(docs) * 2 / 3 }

// ---- kinds ----

// parityPart is one index a kind yields, with what it is held to.
type parityPart struct {
	name string
	ix   *Index
	// docs are the documents ix holds, in DocID order: its reference is
	// the Builder's index of them.
	docs []segDoc
	// file is the FormatV2 image ix was opened from; nil in memory.
	file []byte
	// warm is, on a compaction's output, the keys its base input had
	// resolved: each must have been carried, unless a constituent
	// survives nowhere.
	warm map[string]bool
}

// parityKind is one kind of index: build makes its indexes over a
// corpus, and notes what only it can show in the evidence.
type parityKind struct {
	name  string
	build func(t *testing.T, c parityCorpus, ev *parityEvidence) []parityPart
}

// parityKinds are the table's kinds: built; v2 opened from a file at
// block sizes 1, 3, 4, 7, 128 and 16 384 and from a heap image at 4 and
// 128; the split into 1, 2, 3, 4 and 8 shards of the memory index (whose
// v2 file at block size 128 splits into the same bytes), and into 2, 3,
// 4 and 8 of the v2 file at block sizes 1 and 4; a merge; a warm
// compaction; a flushed segment; the sealed buffer.
func parityKinds() []parityKind {
	kinds := []parityKind{{"built", func(t *testing.T, c parityCorpus, _ *parityEvidence) []parityPart {
		return []parityPart{{name: "index", ix: monolithic(c.docs), docs: c.docs}}
	}}}
	for _, bs := range []int{1, 3, 4, 7, DefaultBlockSize, 1 << 14} {
		kinds = append(kinds, parityKind{fmt.Sprintf("v2-file-bs%d", bs), func(t *testing.T, c parityCorpus, _ *parityEvidence) []parityPart {
			mem := blockSized(t, c.docs, bs)
			ix := openV2File(t, mem)
			if ix.BlockSize() != bs {
				t.Fatalf("opened at block size %d", ix.BlockSize())
			}
			return []parityPart{{name: "index", ix: ix, docs: c.docs, file: imageOf(t, mem)}}
		}})
	}
	for _, bs := range []int{4, DefaultBlockSize} {
		kinds = append(kinds, parityKind{fmt.Sprintf("v2-heap-bs%d", bs), func(t *testing.T, c parityCorpus, _ *parityEvidence) []parityPart {
			img := imageOf(t, blockSized(t, c.docs, bs))
			return []parityPart{{name: "index", ix: openV2Heap(t, img), docs: c.docs, file: img}}
		}})
	}
	for _, n := range []int{1, 2, 3, 4, 8} {
		kinds = append(kinds, parityKind{fmt.Sprintf("split-%d", n), splitOf(n, 0)})
	}
	for _, bs := range []int{1, 4} {
		for _, n := range []int{2, 3, 4, 8} {
			kinds = append(kinds, parityKind{fmt.Sprintf("split-%d-v2-bs%d", n, bs), splitOf(n, bs)})
		}
	}
	return append(kinds,
		parityKind{"merged", merged},
		parityKind{"compacted-warm", compactedWarm},
		parityKind{"segment", flushedSegment},
		parityKind{"sealed-buffer", sealedBuffer},
	)
}

// imageOf is ix's FormatV2 image: the bytes WriteFile writes.
func imageOf(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeV2(&buf, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// splitOf is NewSharded into n shards of the memory index (bs 0) or of
// its v2 file at block size bs. Shard s holds the documents g ≡ s
// (mod S) under local IDs g div S, S the clamped shard count; its images
// are byte for byte the reference split's (requireSplitMatches), and the
// shards' token counts sum to the collection's, so P(w|C) over them is
// the index's own. The memory index's v2 file, at the same block size,
// must split into the same images: its shards are then these, and are
// not checked twice. A split leaves its parents clean and undecoded.
func splitOf(n, bs int) func(t *testing.T, c parityCorpus, _ *parityEvidence) []parityPart {
	return func(t *testing.T, c parityCorpus, _ *parityEvidence) []parityPart {
		mem := monolithic(c.docs)
		parent, parentFile := mem, []byte(nil)
		if bs > 0 {
			mem = blockSized(t, c.docs, bs)
			parent, parentFile = openV2File(t, mem), imageOf(t, mem)
		}
		sh := NewSharded(parent, n)
		shards := min(max(n, 1), max(len(c.docs), 1))
		if sh.NumShards() != shards {
			t.Fatalf("%d shards, want %d", sh.NumShards(), shards)
		}
		if shards == 1 {
			if sh.Shard(0) != parent {
				t.Fatal("one shard does not share its parent")
			}
			return []parityPart{{name: "shard-0", ix: parent, docs: c.docs, file: parentFile}}
		}
		parents := []*Index{parent}
		if bs == 0 {
			parents = append(parents, openV2File(t, mem))
		}
		for _, p := range parents {
			requireSplitMatches(t, "split", p, mem, shards)
			if err := p.Err(); err != nil || p.lazy != nil && p.postings != nil {
				t.Fatalf("the split recorded %v or left rows on its parent", err)
			}
		}
		imgs := splitImages(parent, shards)
		var parts []parityPart
		var toks int64
		for s := range shards {
			shard := sh.Shard(s)
			if shard.lazy == nil {
				t.Fatalf("shard %d is not v2-backed", s)
			}
			var docs []segDoc
			for g := s; g < len(c.docs); g += shards {
				docs = append(docs, c.docs[g])
			}
			for local := range DocID(shard.NumDocs()) {
				if g := sh.GlobalDoc(s, local); int(g)%shards != s || int(g)/shards != int(local) {
					t.Fatalf("GlobalDoc(%d, %d) = %d does not round-trip", s, local, g)
				}
			}
			toks += shard.TotalTokens()
			parts = append(parts, parityPart{name: fmt.Sprintf("shard-%d", s), ix: shard, docs: docs, file: imgs[s]})
		}
		for _, cf := range []int64{0, 1, 2, 17, mem.TotalTokens()} {
			if got, want := FloorProb(cf, toks), mem.FloorProb(cf); got != want {
				t.Fatalf("FloorProb(%d): over the shards %v, over the index %v", cf, got, want)
			}
		}
		return parts
	}
}

// merged is writeMerged over three v2 inputs cut from the corpus: the
// first, at block size 128 and without tombstones, has its short rows
// extended in place by the later inputs' postings (on the hot corpus the
// hot document, first in the second input, raises a's MaxTF inside a
// spliced block); the second and third, at block sizes 4 and 1, carry
// tombstones.
func merged(t *testing.T, c parityCorpus, ev *parityEvidence) []parityPart {
	cut, n := cutAt(c.docs), len(c.docs)
	dir := t.TempDir()
	var ins []mergeInput
	var survivors []segDoc
	for i, in := range []struct {
		docs []segDoc
		bs   int
		dead func(d int) bool
	}{
		{c.docs[:cut], DefaultBlockSize, func(int) bool { return false }},
		{c.docs[cut : (cut+n)/2], 4, func(d int) bool { return d%5 == 4 }},
		{c.docs[(cut+n)/2:], 1, func(d int) bool { return d%3 == 1 }},
	} {
		var dead []DocID
		for d, doc := range in.docs {
			if in.dead(d) {
				dead = append(dead, DocID(d))
			} else {
				survivors = append(survivors, doc)
			}
		}
		ins = append(ins, openInput(t, filepath.Join(dir, fmt.Sprintf("in%d.v2", i)), in.docs, in.bs, dead))
	}
	var img bytes.Buffer
	counts, _, err := writeMerged(&img, analysis.Analyzer{}, ins)
	if err != nil {
		t.Fatal(err)
	}
	ev.merged(counts)
	return []parityPart{{name: "merged", ix: openV2Heap(t, img.Bytes()), docs: survivors, file: img.Bytes()}}
}

// compactedWarm is the output of Compact over three flushed segments
// whose phrase and window leaves readers had resolved — every key on
// the base, every other one on the second — so the merged segment
// starts with the entries carried from them. The base holds, between
// ordinary documents, the qq rr documents (all but one deleted, so qq
// rr matches nowhere while both terms survive) and the only yy document
// (deleted); the third input lacks g; tombstones sit in the base and
// the second input.
func compactedWarm(t *testing.T, c parityCorpus, _ *parityEvidence) []parityPart {
	n := len(c.docs)
	specials := []segDoc{{"qq-rr-1", "a qq rr b"}, {"qq-rr-2", "qq rr qq rr"}, {"rr-a-qq", "rr a qq b"}, {"yy-b", "yy b a"}}
	inputs := [][]segDoc{
		slices.Concat(c.docs[:n/4], specials, c.docs[n/4:n/2]),
		c.docs[n/2 : 3*n/4],
		withoutG(c.docs[3*n/4:]),
	}
	dead := map[string]bool{"qq-rr-1": true, "qq-rr-2": true, "yy-b": true}
	for i, d := range c.docs[:3*n/4] {
		if i%9 == 4 {
			dead[d.name] = true
		}
	}
	s := openSegForTest(t, 1<<20)
	var survivors []segDoc
	for _, in := range inputs {
		ingestAll(t, s, in)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, d := range in {
			if !dead[d.name] {
				survivors = append(survivors, d)
			}
		}
	}
	var names []string
	for name := range dead {
		names = append(names, name)
	}
	if got, err := s.DeleteBatch(names); err != nil || got != len(names) {
		t.Fatalf("DeleteBatch = %d, %v; want %d", got, err, len(names))
	}
	sn := s.Acquire()
	var sc PositionalScratch
	warm := map[string]bool{}
	for i, k := range c.keys {
		k.leaf(sn.Segment(0), &sc)
		if i%2 == 0 && sn.NumSegments() > 1 {
			k.leaf(sn.Segment(1), &sc)
		}
		if _, ok := memoKey(sn.Segment(0), k); ok {
			warm[k.String()] = true
		}
	}
	sn.Release()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	sn = s.Acquire()
	t.Cleanup(sn.Release)
	if sn.NumSegments() != 1 {
		t.Fatalf("%d segments after Compact", sn.NumSegments())
	}
	file, err := os.ReadFile(s.disk[0].path)
	if err != nil {
		t.Fatal(err)
	}
	return []parityPart{{name: "compacted", ix: sn.Segment(0), docs: survivors, file: file, warm: warm}}
}

// withoutG is docs with every "g" turned into an "f", renamed: an input
// that lacks one constituent of the vocabulary.
func withoutG(docs []segDoc) []segDoc {
	out := make([]segDoc, len(docs))
	for i, d := range docs {
		out[i] = segDoc{name: "nog-" + d.name, text: strings.ReplaceAll(d.text, "g ", "f ")}
	}
	return out
}

// flushedSegment is the segment a live index flushed from the corpus's
// first part, read while later documents sit in its buffer.
func flushedSegment(t *testing.T, c parityCorpus, _ *parityEvidence) []parityPart {
	cut := cutAt(c.docs)
	s := openSegForTest(t, 1<<20)
	ingestAll(t, s, c.docs[:cut])
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, c.docs[cut:])
	if cut == 0 {
		return nil
	}
	sn := s.Acquire()
	t.Cleanup(sn.Release)
	file, err := os.ReadFile(s.disk[0].path)
	if err != nil {
		t.Fatal(err)
	}
	return []parityPart{{name: "flushed", ix: sn.Segment(0), docs: c.docs[:cut], file: file}}
}

// sealedBuffer is two seals of a live index's ingest buffer: one taken
// after the corpus's first part, read after the rest was ingested (on
// the hot corpus, after a later document raised a's largest tf), and
// one over the whole corpus.
func sealedBuffer(t *testing.T, c parityCorpus, _ *parityEvidence) []parityPart {
	cut := cutAt(c.docs)
	s := openSegForTest(t, 1<<20)
	var parts []parityPart
	seal := func(name string, docs []segDoc) {
		sn := s.Acquire()
		t.Cleanup(sn.Release)
		if len(docs) > 0 {
			parts = append(parts, parityPart{name: name, ix: sn.Segment(sn.NumSegments() - 1), docs: docs})
		}
	}
	ingestAll(t, s, c.docs[:cut])
	seal("early-seal", c.docs[:cut])
	ingestAll(t, s, c.docs[cut:])
	seal("later-seal", c.docs)
	return parts
}

// ---- checks ----

// checkPart holds part p of a kind to the Builder's index of its
// documents: requireParity's checks, then its positional leaves through
// the memo and, where it was opened from an image, its re-encoded bytes.
func checkPart(t *testing.T, kind string, p parityPart, c parityCorpus, ev *parityEvidence) {
	ref := monolithic(p.docs)
	requireParity(t, p.ix, ref)
	checkPositional(t, kind, p, ref, c, ev)
	if p.file != nil && !bytes.Equal(imageOf(t, p.ix), p.file) {
		t.Fatal("re-encoding the index changed its bytes")
	}
	if err := p.ix.Err(); err != nil {
		t.Fatalf("recorded %v", err)
	}
}

// requireParity demands ix index ref's documents exactly as ref, the
// Builder's index of them, does: the corpus shape, every row, the stored
// statistics, a v2 index's block directory and cursor walks, and every
// forward vector. Term IDs may differ — a merge numbers terms by first
// surviving occurrence, a split in its parent's order — so term text is
// the join key. A v2-backed ix must answer all of it without keeping a
// row, and with nothing recorded on Err.
func requireParity(t *testing.T, ix, ref *Index) {
	t.Helper()
	checkShape(t, ix, ref)
	checkRows(t, ix, ref)
	checkStream(t, ix, ref)
	checkDocVectors(t, ix, ref)
	if ix.lazy != nil && ix.postings != nil {
		t.Fatal("a v2-backed index kept term rows")
	}
	if err := ix.Err(); err != nil {
		t.Fatalf("recorded %v", err)
	}
}

// checkShape compares the corpus shape — documents, names, lengths,
// terms, tokens, MinDocLen — and holds ix to the accounting identities:
// the document lengths and the stored collection frequencies each sum to
// the token count.
func checkShape(t *testing.T, ix, ref *Index) {
	t.Helper()
	if ix.NumDocs() != ref.NumDocs() || ix.NumTerms() != ref.NumTerms() || ix.TotalTokens() != ref.TotalTokens() {
		t.Fatalf("shape %v, want %v", ix, ref)
	}
	var lens int64
	var shortest int32 // 0 when there is no document
	for d := range DocID(ref.NumDocs()) {
		if ix.DocName(d) != ref.DocName(d) || ix.DocLen(d) != ref.DocLen(d) {
			t.Fatalf("doc %d is (%q, %d), want (%q, %d)", d, ix.DocName(d), ix.DocLen(d), ref.DocName(d), ref.DocLen(d))
		}
		lens += int64(ix.DocLen(d))
		if d == 0 || ix.DocLen(d) < shortest {
			shortest = ix.DocLen(d)
		}
	}
	var cfs int64
	for id := range int32(ix.NumTerms()) {
		_, cf := ix.StoredTermStats(id)
		cfs += cf
	}
	if lens != ix.TotalTokens() || cfs != ix.TotalTokens() {
		t.Fatalf("document lengths sum to %d and collection frequencies to %d, over %d tokens", lens, cfs, ix.TotalTokens())
	}
	if ix.MinDocLen() != shortest {
		t.Fatalf("MinDocLen %d, want %d", ix.MinDocLen(), shortest)
	}
}

// checkRows compares every term's row — documents, frequencies,
// positions — its stored df, cf and MaxTF with the row's, and on a v2
// index its block directory with what the writer derives from the row at
// the index's block size.
func checkRows(t *testing.T, ix, ref *Index) {
	t.Helper()
	for rid := range int32(ref.NumTerms()) {
		text := ref.TermText(rid)
		want := ref.PostingsByID(rid)
		id, ok := ix.TermID(text)
		if !ok {
			t.Fatalf("term %q missing", text)
		}
		got := ix.PostingsByID(id)
		if !slices.Equal(got.Docs, want.Docs) || !slices.Equal(got.Freqs, want.Freqs) ||
			!slices.EqualFunc(got.Positions, want.Positions, slices.Equal[[]int32]) {
			t.Fatalf("term %q row %v/%v/%v, want %v/%v/%v", text, got.Docs, got.Freqs, got.Positions, want.Docs, want.Freqs, want.Positions)
		}
		df, cf := ix.StoredTermStats(id)
		if df != len(want.Docs) || cf != want.CollectionFreq() || ix.StoredMaxTF(id) != maxTF(want.Freqs) {
			t.Fatalf("term %q stored df=%d cf=%d maxTF=%d, row df=%d cf=%d maxTF=%d",
				text, df, cf, ix.StoredMaxTF(id), len(want.Docs), want.CollectionFreq(), maxTF(want.Freqs))
		}
		if ix.lazy != nil {
			w := newV2Writer(ref.analyzer, ix.BlockSize())
			w.appendRows(want, 0)
			if !slices.Equal(ix.blockBounds[id], w.blocks) {
				t.Fatalf("term %q block directory %+v, the writer derives %+v", text, ix.blockBounds[id], w.blocks)
			}
		}
	}
}

// checkStream walks every term of a v2-backed ix with block cursors and
// holds each walk to a slice cursor over the reference row: Next in
// positions mode, checking Doc, Rank, PeekNext, Freq and Positions at
// every step; Advance from a fresh cursor to every target, decoding at
// most the landing block; and seeded interleavings of every accessor.
func checkStream(t *testing.T, ix, ref *Index) {
	t.Helper()
	if ix.lazy == nil {
		return
	}
	bs := ix.BlockSize()
	for rid := range int32(ref.NumTerms()) {
		text := ref.TermText(rid)
		id, ok := ix.StreamableTerm(text)
		if !ok {
			t.Fatalf("term %q is not streamable", text)
		}
		p := ref.PostingsByID(rid)
		var sc TermCursor
		sc.resetStream(ix, id, true)
		if sc.Len() != len(p.Docs) {
			t.Fatalf("term %q: Len=%d want %d", text, sc.Len(), len(p.Docs))
		}
		for i := range p.Docs {
			if sc.Doc() != p.Docs[i] || sc.Rank() != i {
				t.Fatalf("term %q: step %d at (%d, rank %d), want (%d, %d)", text, i, sc.Doc(), sc.Rank(), p.Docs[i], i)
			}
			want := DocEnd
			if i+1 < len(p.Docs) {
				want = p.Docs[i+1]
			}
			if got := sc.PeekNext(); got != want {
				t.Fatalf("term %q: step %d PeekNext=%d want %d", text, i, got, want)
			}
			if got := sc.Freq(); got != p.Freqs[i] {
				t.Fatalf("term %q: step %d Freq=%d want %d", text, i, got, p.Freqs[i])
			}
			if got := sc.Positions(); !slices.Equal(got, p.Positions[i]) {
				t.Fatalf("term %q: step %d Positions=%v want %v", text, i, got, p.Positions[i])
			}
			sc.Next()
		}
		if sc.Doc() != DocEnd || sc.Rank() != len(p.Docs) || sc.Next() != DocEnd || sc.PeekNext() != DocEnd {
			t.Fatalf("term %q: after the walk at (%d, rank %d), or an exhausted cursor moved", text, sc.Doc(), sc.Rank())
		}
		if decoded := sc.Decoded; sc.Positions() != nil || sc.Decoded != decoded {
			t.Fatalf("term %q: an exhausted cursor served positions or decoded again", text)
		}

		for target := DocID(0); target <= DocID(ix.NumDocs()); target++ {
			var st, sl TermCursor
			st.ResetStream(ix, id)
			sl.Reset(p)
			gd, wd := st.Advance(target), sl.Advance(target)
			if gd != wd || st.Rank() != sl.Rank() {
				t.Fatalf("term %q: Advance(%d) = (%d, rank %d), want (%d, %d)", text, target, gd, st.Rank(), wd, sl.Rank())
			}
			if gd != DocEnd && st.Freq() != sl.Freq() {
				t.Fatalf("term %q: Advance(%d) Freq %d vs %d", text, target, st.Freq(), sl.Freq())
			}
			if st.Decoded > 1 {
				t.Fatalf("term %q: Advance(%d) decoded %d of %d blocks", text, target, st.Decoded, st.NumBlocks())
			}
		}

		rng := rand.New(rand.NewSource(int64(bs) + int64(rid)))
		var st, sl TermCursor
		st.resetStream(ix, id, true)
		sl.Reset(p)
		for op := 0; op < 500 && st.Doc() != DocEnd; op++ {
			var g, w any
			switch rng.Intn(5) {
			case 0:
				g, w = st.Next(), sl.Next()
			case 1:
				target := st.Doc() + DocID(rng.Intn(2*bs+2))
				g, w = st.Advance(target), sl.Advance(target)
			case 2:
				g, w = st.Freq(), sl.Freq()
			case 3:
				g, w = st.PeekNext(), sl.PeekNext()
			case 4:
				g, w = fmt.Sprint(st.Positions()), fmt.Sprint(sl.Positions())
			}
			if g != w || st.Rank() != sl.Rank() {
				t.Fatalf("term %q: op %d gave %v at rank %d, the slice cursor %v at rank %d", text, op, g, st.Rank(), w, sl.Rank())
			}
		}
	}
}

// checkDocVectors holds every forward vector to the reference rows read
// by document, as (term text, frequency) pairs.
func checkDocVectors(t *testing.T, ix, ref *Index) {
	t.Helper()
	type entry struct {
		text string
		freq int32
	}
	byText := func(a, b entry) int { return cmp.Compare(a.text, b.text) }
	want := make([][]entry, ref.NumDocs())
	for rid := range int32(ref.NumTerms()) {
		p := ref.PostingsByID(rid)
		for i, d := range p.Docs {
			want[d] = append(want[d], entry{ref.TermText(rid), p.Freqs[i]})
		}
	}
	for d := range DocID(ix.NumDocs()) {
		var got []entry
		for _, tf := range ix.DocVector(d) {
			got = append(got, entry{ix.TermText(tf.Term), tf.Freq})
		}
		slices.SortFunc(got, byText)
		slices.SortFunc(want[d], byText)
		if !slices.Equal(got, want[d]) {
			t.Fatalf("doc %d forward vector %v, want %v", d, got, want[d])
		}
	}
}

// checkPositional resolves every key of the corpus through p's memo and
// holds each leaf to PhrasePostings / UnorderedWindowPostings on the
// reference: cold; warm, as the same entry without a second
// intersection; and again with the budget shrunk so that generations
// flip and entries are recomputed, the ledger within the budget
// throughout. On a compaction's output, every key its base had resolved
// is found carried — a hit, with no intersection — unless one of its
// constituents survives nowhere.
func checkPositional(t *testing.T, kind string, p parityPart, ref *Index, c parityCorpus, ev *parityEvidence) {
	t.Helper()
	ix, m := p.ix, &p.ix.positionals
	fills := map[string]int{}
	m.filled = func(key string) { fills[key]++ }
	var sc PositionalScratch
	wants := make([]Postings, len(c.keys))
	var carriedKeys []string
	nonEmpty, skipped := 0, 0
	for i, k := range c.keys {
		wants[i] = k.reference(ref)
		if p.warm[k.String()] {
			if mk, ok := memoKey(ix, k); !ok {
				skipped++
			} else if e := m.entry(mk); e == nil {
				t.Fatalf("%v was resolved on the base but not carried", k)
			} else if got, hit := k.leaf(ix, &sc); !hit || got != e {
				t.Fatalf("%v: resolved again after the carry (hit=%v)", k, hit)
			} else {
				carriedKeys = append(carriedKeys, mk)
			}
		}
		cold, _ := k.leaf(ix, &sc)
		requireMatchesReference(t, k.String()+" cold", ix, cold, wants[i])
		if warm, hit := k.leaf(ix, &sc); !hit || warm != cold {
			t.Fatalf("%v: second lookup hit=%v, same entry=%v", k, hit, warm == cold)
		}
		if len(wants[i].Docs) > 0 {
			nonEmpty++
		}
	}
	for key, n := range fills {
		if n != 1 {
			t.Fatalf("key %q intersected %d times with nothing evicted", key, n)
		}
	}
	for _, key := range carriedKeys {
		if fills[key] != 0 {
			t.Fatalf("carried key %q was intersected again", key)
		}
	}
	if len(carriedKeys)+skipped != len(p.warm) {
		t.Fatalf("%d keys were warm on the base: %d carried, %d skipped", len(p.warm), len(carriedKeys), skipped)
	}

	m.mu.Lock()
	m.cur, m.old, m.curCost, m.oldCost = nil, nil, 0, 0
	m.budget = 16 * positionalEntryCost
	m.mu.Unlock()
	for range 3 {
		for i, k := range c.keys {
			got, _ := k.leaf(ix, &sc)
			requireMatchesReference(t, k.String()+" evicting", ix, got, wants[i])
			if cached := m.cached(t); cached > m.budget {
				t.Fatalf("%d postings cached, budget %d", cached, m.budget)
			}
		}
	}
	refills := 0
	for _, n := range fills {
		refills += max(n-1, 0)
	}
	ev.positional(kind, c, len(c.keys), nonEmpty, refills, len(carriedKeys), skipped)
}

// ---- the table ----

// parityEvidence is what the table as a whole must show it exercised:
// merges that took every tier (a spliced tail block among them); and
// over the generated corpora, compactions that carried at least half
// their keys and skipped some, and per kind keys that match something
// (at least a quarter) and evictions that forced a recomputation.
type parityEvidence struct {
	mu                       sync.Mutex
	rows                     int
	copied, spliced, encoded int64
	carried, skipped, keyed  int
	keys, nonEmpty, refills  map[string]int
}

func (ev *parityEvidence) merged(c mergeCounts) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	ev.copied += c.copied
	ev.spliced += c.spliced
	ev.encoded += c.encoded
}

func (ev *parityEvidence) positional(kind string, c parityCorpus, keys, nonEmpty, refills, carried, skipped int) {
	if !c.generated {
		return
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	ev.keys[kind] += keys
	ev.nonEmpty[kind] += nonEmpty
	ev.refills[kind] += refills
	if kind == "compacted-warm" {
		ev.keyed += keys
		ev.carried += carried
		ev.skipped += skipped
	}
}

// check asserts the evidence floors, if every row ran.
func (ev *parityEvidence) check(t *testing.T, kinds []parityKind, rows int) {
	if ev.rows < rows {
		t.Logf("%d of %d rows ran: the evidence floors apply to the whole table", ev.rows, rows)
		return
	}
	if ev.copied == 0 || ev.spliced == 0 || ev.encoded == 0 {
		t.Errorf("a merge tier was never taken: %d copied, %d spliced, %d encoded", ev.copied, ev.spliced, ev.encoded)
	}
	if ev.skipped == 0 || 2*ev.carried < ev.keyed {
		t.Errorf("the compactions carried %d keys of %d and skipped %d", ev.carried, ev.keyed, ev.skipped)
	}
	for _, k := range kinds {
		if 4*ev.nonEmpty[k.name] < ev.keys[k.name] || ev.refills[k.name] == 0 {
			t.Errorf("%s: %d of %d keys matched something, %d recomputations under eviction",
				k.name, ev.nonEmpty[k.name], ev.keys[k.name], ev.refills[k.name])
		}
	}
}

// TestIndexParity builds every kind over every corpus, in parallel rows
// named <kind>/<corpus>, holds every index each yields to the Builder's
// index of its documents, then checks the evidence floors.
func TestIndexParity(t *testing.T) {
	kinds, corpora := parityKinds(), parityCorpora()
	ev := &parityEvidence{keys: map[string]int{}, nonEmpty: map[string]int{}, refills: map[string]int{}}
	t.Cleanup(func() { ev.check(t, kinds, len(kinds)*len(corpora)) })
	for _, k := range kinds {
		for _, c := range corpora {
			t.Run(k.name+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				for _, p := range k.build(t, c, ev) {
					t.Run(p.name, func(t *testing.T) { checkPart(t, k.name, p, c, ev) })
				}
				ev.mu.Lock()
				ev.rows++
				ev.mu.Unlock()
			})
		}
	}
}
