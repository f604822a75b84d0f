package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// mergeInputs is the definition writeMerged is held to: the in-memory
// index equivalent to indexing every surviving document of ins, in
// order. It merges at the postings level — per-(term, doc) frequencies
// and positions verbatim, survivor DocIDs assigned by rank — so the
// result is indistinguishable from a monolithic rebuild for every
// scoring path, positional ones included. Term IDs are assigned by first
// surviving occurrence across inputs.
func mergeInputs(a analysis.Analyzer, ins []mergeInput) *Index {
	out := &Index{analyzer: a, terms: make(map[string]int32)}
	base := 0
	for _, in := range ins {
		n := in.ix.NumDocs()
		// remap[local] is the merged DocID, or -1 for tombstoned docs.
		remap := make([]int32, n)
		next := base
		for id := 0; id < n; id++ {
			if in.dead.Has(DocID(id)) {
				remap[id] = -1
				continue
			}
			remap[id] = int32(next)
			next++
			out.docNames = append(out.docNames, in.ix.DocName(DocID(id)))
			dl := in.ix.DocLen(DocID(id))
			out.docLens = append(out.docLens, dl)
			out.totalToks += int64(dl)
		}
		for tid := 0; tid < in.ix.NumTerms(); tid++ {
			src := in.ix.PostingsByID(int32(tid))
			row := Postings{Docs: slices.Clone(src.Docs), Freqs: slices.Clone(src.Freqs), Positions: slices.Clone(src.Positions)}
			// Survivors move to the front of the row, under their new IDs.
			k := 0
			for pi, doc := range row.Docs {
				if nd := remap[doc]; nd >= 0 {
					row.Docs[k], row.Freqs[k], row.Positions[k] = DocID(nd), row.Freqs[pi], row.Positions[pi]
					k++
				}
			}
			if k == 0 {
				continue
			}
			row = Postings{Docs: row.Docs[:k:k], Freqs: row.Freqs[:k:k], Positions: row.Positions[:k:k]}
			text := in.ix.TermText(int32(tid))
			mid, ok := out.terms[text]
			if !ok {
				out.terms[text] = int32(len(out.termText))
				out.termText = append(out.termText, text)
				out.postings = append(out.postings, row)
				continue
			}
			mp := &out.postings[mid]
			mp.Docs = append(mp.Docs, row.Docs...)
			mp.Freqs = append(mp.Freqs, row.Freqs...)
			mp.Positions = append(mp.Positions, row.Positions...)
		}
		base = next
	}
	return out
}

// referenceMerge is encodeV2(mergeInputs(ins)): the bytes a merge must
// write.
func referenceMerge(t testing.TB, ins []mergeInput) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeV2(&buf, mergeInputs(analysis.Analyzer{}, ins)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// zipfDocs generates n documents of 3-15 tokens over a Zipf-distributed
// vocabulary: a few rows long enough for full blocks, a long tail of
// short ones.
func zipfDocs(rng *rand.Rand, n, vocab int, prefix string) []segDoc {
	z := rand.NewZipf(rng, 1.1, 2, uint64(vocab-1))
	docs := make([]segDoc, n)
	for d := range docs {
		var sb strings.Builder
		for range 3 + rng.Intn(13) {
			fmt.Fprintf(&sb, "w%d ", z.Uint64())
		}
		docs[d] = segDoc{name: fmt.Sprintf("%s%05d", prefix, d), text: sb.String()}
	}
	return docs
}

// openInput writes docs as a v2 file at block size bs (unsynced: only
// the bytes matter) and opens it as a merge input with dead tombstoned.
func openInput(t *testing.T, path string, docs []segDoc, bs int, dead []DocID) mergeInput {
	t.Helper()
	mem := monolithic(docs)
	if err := mem.SetBlockSize(bs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encodeV2(&buf, mem); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return mergeInput{ix: ix, dead: tombstones{}.with(ix.docLens, dead).dead}
}

// TestMergeWriterMatchesReference: writeMerged's bytes equal
// encodeV2(mergeInputs(ins)) over seeded inputs — the first one's
// tombstones at its start, middle, end, sprinkled, none, or all of it;
// the inputs at block sizes 1, 2, 4 and 128 — and over the segments of
// random ingest/delete/flush/compact scripts, where the compacted file
// on disk is what is compared. Every tier must have been taken, and a
// first input at another block size than the output's must take only
// the encode tier.
func TestMergeWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	shapes := []struct {
		name string
		dead func(n int) []DocID
	}{
		{"none", func(int) []DocID { return nil }},
		{"start", func(n int) []DocID { return []DocID{0, 1, 2} }},
		{"middle", func(n int) []DocID { return []DocID{DocID(n / 2)} }},
		{"end", func(n int) []DocID { return []DocID{DocID(n - 3), DocID(n - 1)} }},
		{"sprinkled", func(n int) []DocID { return []DocID{DocID(n / 7), DocID(n / 3), DocID(n - 2)} }},
		{"all", func(n int) []DocID {
			all := make([]DocID, n)
			for i := range all {
				all[i] = DocID(i)
			}
			return all
		}},
	}
	sizes := []int{1, 2, 4, DefaultBlockSize}
	var total mergeCounts
	for c := 0; c < 4*len(shapes); c++ {
		shape := shapes[c%len(shapes)]
		bs0 := DefaultBlockSize
		if c >= 3*len(shapes) {
			bs0 = sizes[c%3]
		}
		t.Run(fmt.Sprintf("%02d-first-%s-bs%d", c, shape.name, bs0), func(t *testing.T) {
			dir := t.TempDir()
			n0 := 200 + rng.Intn(500)
			ins := []mergeInput{openInput(t, filepath.Join(dir, "in0.v2"), zipfDocs(rng, n0, 150, "F"), bs0, shape.dead(n0))}
			for k := 1; k <= 1+rng.Intn(4); k++ {
				docs := zipfDocs(rng, 1+rng.Intn(80), 150, fmt.Sprintf("L%d-", k))
				var dead []DocID
				for d := range docs {
					if rng.Intn(6) == 0 {
						dead = append(dead, DocID(d))
					}
				}
				ins = append(ins, openInput(t, filepath.Join(dir, fmt.Sprintf("in%d.v2", k)), docs, sizes[rng.Intn(len(sizes))], dead))
			}
			var got bytes.Buffer
			counts, _, err := writeMerged(&got, analysis.Analyzer{}, ins)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceMerge(t, ins); !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("merged image differs from the reference (%d vs %d bytes; counts %+v)", got.Len(), len(want), counts)
			}
			if bs0 != DefaultBlockSize && counts.copied+counts.spliced != 0 {
				t.Fatalf("a first input at block size %d carried blocks: %+v", bs0, counts)
			}
			total.copied += counts.copied
			total.spliced += counts.spliced
			total.encoded += counts.encoded
		})
	}

	for c := 0; c < 3; c++ {
		t.Run(fmt.Sprintf("script-%d", c), func(t *testing.T) {
			s := openSegForTest(t, 64+rng.Intn(200))
			docs := zipfDocs(rng, 1200, 150, "S")
			next := 0
			for step := 0; step < 30; step++ {
				switch r := rng.Intn(10); {
				case r < 5 && next < len(docs):
					k := min(next+1+rng.Intn(60), len(docs))
					ingestAll(t, s, docs[next:k])
					next = k
				case r < 7 && next > 0:
					var names []string
					for range 1 + rng.Intn(20) {
						names = append(names, docs[rng.Intn(next)].name)
					}
					if _, err := s.DeleteBatch(names); err != nil {
						t.Fatal(err)
					}
				case r < 8:
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
				default:
					if len(s.disk) == 0 {
						continue
					}
					sn := s.Acquire()
					var ins []mergeInput
					for _, v := range sn.views {
						if v.seg != nil {
							ins = append(ins, mergeInput{ix: v.ix, dead: v.dead})
						}
					}
					want := referenceMerge(t, ins)
					sn.Release()
					before := s.Stats()
					if err := s.Compact(); err != nil {
						t.Fatal(err)
					}
					got, err := os.ReadFile(s.disk[0].path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d: compacted file differs from the reference (%d vs %d bytes)", step, len(got), len(want))
					}
					after := s.Stats()
					total.copied += after.MergeBlocksCopied - before.MergeBlocksCopied
					total.spliced += after.MergeBlocksSpliced - before.MergeBlocksSpliced
					total.encoded += after.MergeBlocksEncoded - before.MergeBlocksEncoded
				}
			}
		})
	}
	if total.copied == 0 || total.spliced == 0 || total.encoded == 0 {
		t.Fatalf("a tier was never taken: %+v", total)
	}
}

// TestSegmentedCompactRemovesFullyTombstonedSegment: a segment whose
// every document is deleted leaves every snapshot, and its last release
// closes it while the manifest still names it. Compact must neither
// read it nor leak its file: afterwards the directory holds exactly the
// manifest's segments.
func TestSegmentedCompactRemovesFullyTombstonedSegment(t *testing.T) {
	docs := segCorpus(40, 26)
	s := openSegForTest(t, 20) // two committed segments, nothing buffered
	ingestAll(t, s, docs)
	var first []string
	for _, d := range docs[:20] {
		first = append(first, d.name)
	}
	if n, err := s.DeleteBatch(first); err != nil || n != 20 {
		t.Fatalf("DeleteBatch = %d, %v", n, err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{manifestName}
	for _, e := range m.Segments {
		want = append(want, segFileName(e.Seq))
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("directory holds %v, the manifest names %v", got, want)
	}
	sn := s.Acquire()
	defer sn.Release()
	requireParity(t, sn.Segment(0), monolithic(docs[20:]))
}

// BenchmarkSegmentedCompact is one compaction in live-mixed's shape at
// half its size: a 20 000-document base whose tail — the previous
// cycle's documents — is being deleted, plus 16 flushed 64-document
// segments with every 8th document tombstoned. The segments and the
// deletes are rebuilt untimed before each compaction. No leaf is
// resolved, so the merged segment's memo starts empty.
func BenchmarkSegmentedCompact(b *testing.B) { benchSegmentedCompact(b, 0) }

// BenchmarkSegmentedCompactWarm is BenchmarkSegmentedCompact with 1 024
// two- and three-word phrases resolved on every segment before each
// compaction, as readers leave them: what carrying the memo into the
// merged segment adds to a merge (fills on the small inputs, the
// renumbered rows).
func BenchmarkSegmentedCompactWarm(b *testing.B) { benchSegmentedCompact(b, 1024) }

func benchSegmentedCompact(b *testing.B, phrases int) {
	const baseDocs, batch, batches, vocab = 20000, 64, 16, 5000
	rng := rand.New(rand.NewSource(27))
	s, err := OpenSegmented(b.TempDir(), analysis.Analyzer{}, WithFlushDocs(1<<20))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ingest := func(docs []segDoc) {
		for _, d := range docs {
			if err := s.Ingest(d.name, d.text); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	ingest(zipfDocs(rng, baseDocs, vocab, "base"))
	if err := s.Compact(); err != nil {
		b.Fatal(err)
	}
	keys := make([][]string, phrases)
	for i := range keys {
		for range 2 + i%2 {
			keys[i] = append(keys[i], fmt.Sprintf("w%d", 2+rng.Intn(60)))
		}
	}
	var sc PositionalScratch
	var window []string // the previous cycle's documents, now the base's tail
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dead, next := window, []string(nil)
		for j := 0; j < batches; j++ {
			docs := zipfDocs(rng, batch, vocab, fmt.Sprintf("c%d-%d-", i, j))
			ingest(docs)
			for k, d := range docs {
				next = append(next, d.name)
				if k%8 == 0 {
					dead = append(dead, d.name)
				}
			}
		}
		if _, err := s.DeleteBatch(dead); err != nil {
			b.Fatal(err)
		}
		window = next
		sn := s.Acquire()
		for seg := range sn.NumSegments() {
			for _, k := range keys {
				sn.Segment(seg).PhraseLeaf(k, &sc)
			}
		}
		sn.Release()
		b.StartTimer()
		if err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
