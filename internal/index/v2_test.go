package index

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func writeRaw(path string, content []byte) error {
	return os.WriteFile(path, content, 0o644)
}

// randomIndex builds a seeded corpus with a skewed vocabulary, so lists
// span many blocks when the block size is forced small.
func randomIndex(t *testing.T, docs, seed int) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	vocab := []string{"a", "a", "a", "b", "b", "c", "d", "e", "f", "g", "h", "z"}
	b := NewBuilder(analysis.Analyzer{})
	for d := 0; d < docs; d++ {
		n := 1 + rng.Intn(24)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(vocab[rng.Intn(len(vocab))])
			sb.WriteByte(' ')
		}
		b.Add(fmt.Sprintf("D%05d", d), sb.String())
	}
	return b.Build()
}

// assertSameIndex demands got (v2-backed) equals want (in memory) in
// every observable: corpus shape, postings rows, stored statistics, and
// the block summaries got's directory holds against those writing want
// derives.
func assertSameIndex(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if got.NumDocs() != want.NumDocs() || got.NumTerms() != want.NumTerms() || got.TotalTokens() != want.TotalTokens() {
		t.Fatalf("%s: shape %v vs %v", label, got, want)
	}
	for d := 0; d < want.NumDocs(); d++ {
		if got.DocName(DocID(d)) != want.DocName(DocID(d)) || got.DocLen(DocID(d)) != want.DocLen(DocID(d)) {
			t.Fatalf("%s: doc %d diverges", label, d)
		}
	}
	for tid, text := range want.termText {
		gp := got.PostingsFor(text)
		wp := &want.postings[tid]
		if gp == nil {
			t.Fatalf("%s: term %q missing", label, text)
		}
		if len(gp.Docs) != len(wp.Docs) {
			t.Fatalf("%s: term %q df %d vs %d", label, text, len(gp.Docs), len(wp.Docs))
		}
		for i := range wp.Docs {
			if gp.Docs[i] != wp.Docs[i] || gp.Freqs[i] != wp.Freqs[i] {
				t.Fatalf("%s: term %q posting %d diverges", label, text, i)
			}
			if len(gp.Positions[i]) != len(wp.Positions[i]) {
				t.Fatalf("%s: term %q positions %d diverge", label, text, i)
			}
			for j := range wp.Positions[i] {
				if gp.Positions[i][j] != wp.Positions[i][j] {
					t.Fatalf("%s: term %q position %d/%d diverges", label, text, i, j)
				}
			}
		}
		gid := got.terms[text]
		gdf, gcf := got.StoredTermStats(gid)
		wdf, wcf := want.StoredTermStats(int32(tid))
		if gdf != wdf || gcf != wcf || got.StoredMaxTF(gid) != want.StoredMaxTF(int32(tid)) {
			t.Fatalf("%s: term %q stats (%d, %d, %d) vs (%d, %d, %d)", label, text,
				gdf, gcf, got.StoredMaxTF(gid), wdf, wcf, want.StoredMaxTF(int32(tid)))
		}
		w := newV2Writer(want.analyzer, got.BlockSize())
		w.appendRows(wp, 0)
		gbb, wbb := got.blockBounds[gid], w.blocks
		if len(gbb) != len(wbb) {
			t.Fatalf("%s: term %q has %d blocks, want %d", label, text, len(gbb), len(wbb))
		}
		for i := range wbb {
			if gbb[i] != wbb[i] {
				t.Fatalf("%s: term %q block %d bounds %+v vs %+v", label, text, i, gbb[i], wbb[i])
			}
		}
	}
	if got.MinDocLen() != want.MinDocLen() {
		t.Fatalf("%s: MinDocLen %d vs %d", label, got.MinDocLen(), want.MinDocLen())
	}
}

// TestV2RoundTrip: write FormatV2, Open (lazy mmap), observe an index
// identical to the in-memory original — across block sizes that force
// single-posting, mid-size, and whole-list blocks — and re-encode the
// opened index to the file's bytes.
func TestV2RoundTrip(t *testing.T) {
	for _, bs := range []int{1, 3, DefaultBlockSize, 1 << 14} {
		ix := randomIndex(t, 200, 42)
		if err := ix.SetBlockSize(bs); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ix.v2")
		if err := WriteFile(path, ix, FormatV2); err != nil {
			t.Fatalf("bs=%d: write: %v", bs, err)
		}
		got, err := Open(path)
		if err != nil {
			t.Fatalf("bs=%d: open: %v", bs, err)
		}
		if got.BlockSize() != bs {
			t.Fatalf("bs=%d: loaded block size %d", bs, got.BlockSize())
		}
		assertSameIndex(t, fmt.Sprintf("bs=%d", bs), got, ix)
		var again bytes.Buffer
		if err := encodeV2(&again, got); err != nil {
			t.Fatalf("bs=%d: re-encode: %v", bs, err)
		}
		if file, err := os.ReadFile(path); err != nil || !bytes.Equal(again.Bytes(), file) {
			t.Fatalf("bs=%d: re-encoding the opened index changed its bytes (%v)", bs, err)
		}
		if err := got.Err(); err != nil {
			t.Fatalf("bs=%d: corruption recorded on honest file: %v", bs, err)
		}
		if err := got.Close(); err != nil {
			t.Fatalf("bs=%d: close: %v", bs, err)
		}
	}
}

// TestV2OpenIsLazy: Open decodes no postings, and the index keeps no
// row: PostingsFor decodes a fresh one per call, which the caller owns.
func TestV2OpenIsLazy(t *testing.T) {
	ix := randomIndex(t, 300, 7)
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := WriteFile(path, ix, FormatV2); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.postings != nil {
		t.Fatal("a v2-backed index holds postings rows")
	}
	p := got.PostingsFor("a")
	if p == nil || len(p.Docs) == 0 {
		t.Fatal("PostingsFor(a) decoded nothing")
	}
	if q := got.PostingsFor("a"); &q.Docs[0] == &p.Docs[0] || got.postings != nil {
		t.Fatal("PostingsFor(a) handed out a row the index keeps")
	}
	// MaxTF and the block directory are available without decoding.
	if got.StoredMaxTF(got.terms["b"]) == 0 {
		t.Fatal("StoredMaxTF(b) missing")
	}
	if bb := got.blockBounds[got.terms["b"]]; len(bb) == 0 {
		t.Fatal("block directory of b missing")
	}
}

// TestV2WithVerify: eager verification accepts a good file and still
// yields an identical index.
func TestV2WithVerify(t *testing.T) {
	ix := randomIndex(t, 150, 11)
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := WriteFile(path, ix, FormatV2); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	assertSameIndex(t, "verify", got, ix)
}

// TestOpenRejectsGarbage: unknown magic and short files error cleanly,
// and both revisions of the removed stream format and the first
// revision of FormatV2 fail with ErrOldFormat, naming the magic found.
func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string][]byte{
		"garbage": []byte("NOTANINDEXFILE"),
		"short":   []byte("SQ"),
		"empty":   nil,
		"v1":      []byte("SQEIX\x01\x03"),
		"v1-rev2": []byte("SQEIX\x02"),
		"old-v2":  []byte("SQEBX\x01\x03"),
	} {
		p := filepath.Join(dir, name)
		if err := writeRaw(p, content); err != nil {
			t.Fatal(err)
		}
		_, err := Open(p)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		old := strings.HasPrefix(name, "v1") || name == "old-v2"
		if errors.Is(err, ErrOldFormat) != old {
			t.Fatalf("%s: errors.Is(err, ErrOldFormat) = %v: %v", name, !old, err)
		}
		if old && !strings.Contains(err.Error(), fmt.Sprintf("%q", content[:len(indexMagicV2)])) {
			t.Fatalf("%s: the error does not name the magic found: %v", name, err)
		}
	}
}

// TestV2ShardingAndForward: sharding a lazy index cuts the same shards
// as sharding its in-memory twin, and its forward vectors, read through
// block cursors, equal the twin's.
func TestV2ShardingAndForward(t *testing.T) {
	ix := randomIndex(t, 120, 17)
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := WriteFile(path, ix, FormatV2); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	sh := NewSharded(got, 4)
	wantSh := NewSharded(ix, 4)
	for s := 0; s < 4; s++ {
		if sh.Shard(s).NumDocs() != wantSh.Shard(s).NumDocs() {
			t.Fatalf("shard %d: %d docs, want %d", s, sh.Shard(s).NumDocs(), wantSh.Shard(s).NumDocs())
		}
	}
	for d := range DocID(ix.NumDocs()) {
		if gv, wv := got.DocVector(d), ix.DocVector(d); !reflect.DeepEqual(gv, wv) {
			t.Fatalf("doc %d forward vector %v, want %v", d, gv, wv)
		}
	}
	if got.postings != nil || got.Err() != nil {
		t.Fatalf("the forward build kept rows or recorded %v", got.Err())
	}
}

// TestV2EmptyIndex: an empty corpus round-trips.
func TestV2EmptyIndex(t *testing.T) {
	ix := NewBuilder(analysis.Analyzer{}).Build()
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := WriteFile(path, ix, FormatV2); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.NumDocs() != 0 || got.NumTerms() != 0 {
		t.Fatalf("empty index reopened as %v", got)
	}
}

// TestBuilderWriteFile: a built index written with WriteFile opens as
// the same index.
func TestBuilderWriteFile(t *testing.T) {
	b := NewBuilder(analysis.Analyzer{})
	b.Add("D0", "x y x")
	b.Add("D1", "y z")
	path := filepath.Join(t.TempDir(), "ix.v2")
	built := b.Build()
	if err := WriteFile(path, built, FormatV2); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	assertSameIndex(t, "builder", got, built)
}

// TestSetBlockSizeGuards: out-of-range sizes are refused, an in-memory
// index takes a new size after a write, and an index loaded from a v2
// file refuses any.
func TestSetBlockSizeGuards(t *testing.T) {
	ix := randomIndex(t, 10, 29)
	if err := ix.SetBlockSize(0); err == nil {
		t.Fatal("block size 0 accepted")
	}
	if err := ix.SetBlockSize(maxBlockSize + 1); err == nil {
		t.Fatal("oversized block size accepted")
	}
	disk := openV2File(t, ix)
	if err := ix.SetBlockSize(64); err != nil {
		t.Fatalf("in-memory SetBlockSize after a write: %v", err)
	}
	if err := disk.SetBlockSize(64); err == nil {
		t.Fatal("SetBlockSize on a v2-backed index accepted")
	}
}

// TestOpenAllocsIndependentOfCorpus: Open of a v2 file allocates the
// same number of times whatever its number of documents and terms — the
// names and term texts land in one string each, and every table is
// sized before it is filled — so boot cost is not one allocation per
// row. The larger file has ten times the documents and terms.
func TestOpenAllocsIndependentOfCorpus(t *testing.T) {
	allocs := func(docs int) float64 {
		b := NewBuilder(analysis.Analyzer{})
		for d := range docs {
			b.Add(fmt.Sprintf("D%05d", d), fmt.Sprintf("a b t%d a", d))
		}
		path := filepath.Join(t.TempDir(), "ix.v2")
		if err := WriteFile(path, b.Build(), FormatV2); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			ix, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			ix.Close()
		})
	}
	small, large := allocs(60), allocs(600)
	if large > small {
		t.Fatalf("Open allocates %v times for 600 documents, %v for 60: allocations grow with the corpus", large, small)
	}
}
