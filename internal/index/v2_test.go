package index

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
	requireParity(t, got, ix)
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
	requireParity(t, got, built)
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
