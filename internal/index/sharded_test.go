package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// buildRandomIndex indexes docs synthetic documents over a small
// vocabulary with a fixed seed, so shard invariants are exercised on
// realistic (skewed, multi-occurrence) postings.
func buildRandomIndex(t *testing.T, docs, seed int) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	vocab := []string{"cable", "car", "tram", "funicular", "railway", "gondola", "lift", "museum", "bridge", "harbour"}
	b := NewBuilder(analysis.Standard())
	for d := 0; d < docs; d++ {
		n := 3 + rng.Intn(20)
		text := ""
		for i := 0; i < n; i++ {
			text += vocab[rng.Intn(len(vocab))] + " "
		}
		b.Add(fmt.Sprintf("doc%03d", d), text)
	}
	return b.Build()
}

func TestNewShardedPartitionInvariants(t *testing.T) {
	ix := buildRandomIndex(t, 57, 1)
	for _, n := range []int{1, 2, 3, 4, 8} {
		sh := NewSharded(ix, n)
		if sh.NumShards() != n {
			t.Fatalf("n=%d: NumShards=%d", n, sh.NumShards())
		}
		// Every document appears exactly once, in the right shard, with
		// its name and length intact; GlobalDoc round-trips.
		var docsSeen, toks int64
		for s := 0; s < n; s++ {
			shard := sh.Shard(s)
			docsSeen += int64(shard.NumDocs())
			toks += shard.TotalTokens()
			for local := 0; local < shard.NumDocs(); local++ {
				g := sh.GlobalDoc(s, DocID(local))
				if int(g)%n != s || int(g)/n != local {
					t.Fatalf("n=%d: GlobalDoc(%d,%d)=%d does not round-trip", n, s, local, g)
				}
				if shard.DocName(DocID(local)) != ix.DocName(g) {
					t.Fatalf("n=%d shard=%d local=%d: name %q want %q", n, s, local, shard.DocName(DocID(local)), ix.DocName(g))
				}
				if shard.DocLen(DocID(local)) != ix.DocLen(g) {
					t.Fatalf("n=%d shard=%d local=%d: len mismatch", n, s, local)
				}
			}
		}
		if docsSeen != int64(ix.NumDocs()) || toks != ix.TotalTokens() {
			t.Fatalf("n=%d: shard sums docs=%d toks=%d", n, docsSeen, toks)
		}
		// Per term: the remapped union of shard postings reconstructs the
		// original postings exactly (docs, freqs, positions), and global
		// collection frequencies match.
		for tid := 0; tid < ix.NumTerms(); tid++ {
			term := ix.TermText(int32(tid))
			orig := ix.PostingsFor(term)
			type row struct {
				doc  DocID
				freq int32
				pos  []int32
			}
			var rows []row
			var cf int64
			for s := 0; s < n; s++ {
				p := sh.Shard(s).PostingsFor(term)
				if p == nil {
					continue
				}
				cf += p.CollectionFreq()
				for i, local := range p.Docs {
					rows = append(rows, row{sh.GlobalDoc(s, local), p.Freqs[i], p.Positions[i]})
				}
			}
			if cf != orig.CollectionFreq() {
				t.Fatalf("n=%d term %q: cf %d want %d", n, term, cf, orig.CollectionFreq())
			}
			if len(rows) != len(orig.Docs) {
				t.Fatalf("n=%d term %q: %d rows want %d", n, term, len(rows), len(orig.Docs))
			}
			// Sort rows by global doc to compare against the original.
			for i := 0; i < len(rows); i++ {
				for j := i + 1; j < len(rows); j++ {
					if rows[j].doc < rows[i].doc {
						rows[i], rows[j] = rows[j], rows[i]
					}
				}
			}
			for i, r := range rows {
				if r.doc != orig.Docs[i] || r.freq != orig.Freqs[i] || !reflect.DeepEqual(r.pos, orig.Positions[i]) {
					t.Fatalf("n=%d term %q row %d: got (%d,%d,%v) want (%d,%d,%v)",
						n, term, i, r.doc, r.freq, r.pos, orig.Docs[i], orig.Freqs[i], orig.Positions[i])
				}
			}
		}
		// Shard postings must stay sorted (the DAAT evaluator requires it).
		for s := 0; s < n; s++ {
			shard := sh.Shard(s)
			for tid := 0; tid < shard.NumTerms(); tid++ {
				p := shard.PostingsFor(shard.TermText(int32(tid)))
				for i := 1; i < len(p.Docs); i++ {
					if p.Docs[i-1] >= p.Docs[i] {
						t.Fatalf("n=%d shard=%d term %d: unsorted postings", n, s, tid)
					}
				}
			}
		}
	}
}

func TestNewShardedClamps(t *testing.T) {
	ix := buildRandomIndex(t, 3, 2)
	if got := NewSharded(ix, 0).NumShards(); got != 1 {
		t.Fatalf("n=0 clamped to %d, want 1", got)
	}
	if got := NewSharded(ix, -4).NumShards(); got != 1 {
		t.Fatalf("n=-4 clamped to %d, want 1", got)
	}
	if got := NewSharded(ix, 100).NumShards(); got != 3 {
		t.Fatalf("n=100 clamped to %d, want NumDocs=3", got)
	}
	// n == 1 shares the original index rather than copying it.
	if sh := NewSharded(ix, 1); sh.Shard(0) != ix {
		t.Fatal("n=1 should share the original index")
	}
	// Empty index: a single empty shard, no panic.
	empty := NewBuilder(analysis.Standard()).Build()
	sh := NewSharded(empty, 4)
	if sh.NumShards() != 1 || sh.Shard(0).NumDocs() != 0 {
		t.Fatalf("empty index: %d shards, %d docs", sh.NumShards(), sh.Shard(0).NumDocs())
	}
	if p := sh.Shard(0).FloorProb(0); p != 1e-12 {
		t.Fatalf("empty FloorProb = %v", p)
	}
}

// referenceShards is the split NewSharded's images are held to, built in
// memory: shard s holds the global documents g ≡ s (mod n) under local
// IDs g div n, and every term of ix, in ix's term order, with the
// postings that route to it, positions aliased. It reads ix through
// PostingsByID.
func referenceShards(ix *Index, n int) []*Index {
	shards := make([]*Index, n)
	for s := range shards {
		shards[s] = &Index{analyzer: ix.analyzer, terms: make(map[string]int32), blockSize: ix.BlockSize()}
	}
	for g, name := range ix.docNames {
		s := shards[g%n]
		s.docNames = append(s.docNames, name)
		s.docLens = append(s.docLens, ix.docLens[g])
		s.totalToks += int64(ix.docLens[g])
	}
	for tid, text := range ix.termText {
		p := ix.PostingsByID(int32(tid))
		for row, g := range p.Docs {
			s := shards[int(g)%n]
			id, ok := s.terms[text]
			if !ok {
				id = int32(len(s.termText))
				s.terms[text] = id
				s.termText = append(s.termText, text)
				s.postings = append(s.postings, Postings{})
			}
			sp := &s.postings[id]
			sp.Docs = append(sp.Docs, g/DocID(n))
			sp.Freqs = append(sp.Freqs, p.Freqs[row])
			sp.Positions = append(sp.Positions, p.Positions[row])
		}
	}
	return shards
}

// requireSplitMatches demands that each shard image ix splits into is
// byte for byte encodeV2 of the reference split of twin (ix, or an
// in-memory index over the same documents at the same block size).
func requireSplitMatches(t *testing.T, label string, ix, twin *Index, n int) {
	t.Helper()
	imgs := splitImages(ix, n)
	for s, ref := range referenceShards(twin, n) {
		var want bytes.Buffer
		if err := encodeV2(&want, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(imgs[s], want.Bytes()) {
			t.Fatalf("%s n=%d: shard %d image differs from the reference (%d vs %d bytes)", label, n, s, len(imgs[s]), want.Len())
		}
	}
}

// openV2File writes mem as a v2 file and opens it, closing it at test end.
func openV2File(t *testing.T, mem *Index) *Index {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := WriteFile(path, mem, FormatV2); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// TestNewShardedMatchesReference: every shard image equals encodeV2 of
// the in-memory reference split, for parents built in memory and opened
// from v2 files at block sizes 128, 4 and 1, across shard counts.
// NewSharded's shards serve the reference's rows, and a v2 parent is
// left undecoded and clean.
func TestNewShardedMatchesReference(t *testing.T) {
	docs := zipfDocs(rand.New(rand.NewSource(27)), 700, 150, "D")
	type parent struct {
		name     string
		ix, twin *Index
	}
	parents := []parent{
		{name: "builder", ix: monolithic(docs)},
	}
	for _, bs := range []int{DefaultBlockSize, 4, 1} {
		twin := monolithic(docs)
		if err := twin.SetBlockSize(bs); err != nil {
			t.Fatal(err)
		}
		parents = append(parents, parent{fmt.Sprintf("v2-bs%d", bs), openV2File(t, twin), twin})
	}
	for _, p := range parents {
		if p.twin == nil {
			p.twin = p.ix
		}
		for _, n := range []int{2, 3, 4, 8} {
			label := fmt.Sprintf("%s n=%d", p.name, n)
			sh := NewSharded(p.ix, n)
			requireSplitMatches(t, p.name, p.ix, p.twin, n)
			for s, ref := range referenceShards(p.twin, n) {
				shard := sh.Shard(s)
				if shard.lazy == nil {
					t.Fatalf("%s: shard %d is not v2-backed", label, s)
				}
				requireEquivalent(t, shard, ref)
			}
			if err := p.ix.Err(); err != nil {
				t.Fatalf("%s: the split recorded %v", label, err)
			}
		}
	}
}

// TestNewShardedCorruptParent: a parent the split cannot trust. A closed
// one is not read: its terms split as empty and Err names the Close. A
// block rotted after Open drops its term from every shard and records
// the checksum failure. A CRC-consistent file whose stored bounds lie
// records the disagreement, and its shards carry the honest bounds —
// their images equal the reference split of the truthful index.
func TestNewShardedCorruptParent(t *testing.T) {
	t.Run("closed", func(t *testing.T) {
		ix := openV2File(t, randomIndex(t, 60, 5))
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		sh := NewSharded(ix, 2)
		for s := range sh.NumShards() {
			if shard := sh.Shard(s); shard.NumDocs() != 30 || shard.NumTerms() != 0 {
				t.Fatalf("shard %d of a closed parent: %v", s, shard)
			}
		}
		if err := ix.Err(); err == nil || !strings.Contains(err.Error(), "after Close") {
			t.Fatalf("recorded %v, want the after-Close error", err)
		}
	})

	t.Run("rotted-block", func(t *testing.T) {
		mem := randomIndex(t, 150, 23)
		if err := mem.SetBlockSize(4); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := encodeV2(&buf, mem); err != nil {
			t.Fatal(err)
		}
		ix := openV2Heap(t, buf.Bytes())
		lz, id := ix.lazy, ix.terms["a"]
		ext := lz.extents[int(lz.starts[id])+1]
		lz.post[ext.off+int64(ext.size)-1] ^= 0xFF
		sh := NewSharded(ix, 2)
		for s := range sh.NumShards() {
			if _, ok := sh.Shard(s).TermID("a"); ok {
				t.Fatalf("shard %d holds the rotted term", s)
			}
			if _, ok := sh.Shard(s).TermID("b"); !ok {
				t.Fatalf("shard %d lost a healthy term", s)
			}
		}
		if err := ix.Err(); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("recorded %v, want the checksum error", err)
		}
	})

	t.Run("lying-bounds", func(t *testing.T) {
		img, honest := lyingV2Bytes(t)
		for _, n := range []int{2, 3} {
			ix, err := openBytes(t, img)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			sh := NewSharded(ix, n)
			if err := ix.Err(); err == nil || !strings.Contains(err.Error(), "stored bounds disagree") {
				t.Fatalf("n=%d: recorded %v, want the bounds disagreement", n, err)
			}
			requireSplitMatches(t, "lying-bounds", ix, honest, n)
			for s, ref := range referenceShards(honest, n) {
				want, _ := ref.BoundsFor("a")
				if got, _ := sh.Shard(s).BoundsFor("a"); got != want {
					t.Fatalf("n=%d shard %d: bounds of a %+v, want the honest %+v", n, s, got, want)
				}
			}
		}
	})
}

// BenchmarkNewSharded splits a freshly opened 20 000-document v2 file
// two ways, as a shard server does at boot (the Open and Close are
// untimed): B/op and allocs/op are what the split costs beside the
// mapping, which it leaves undecoded.
func BenchmarkNewSharded(b *testing.B) {
	mem := monolithic(zipfDocs(rand.New(rand.NewSource(27)), 20000, 5000, "d"))
	path := filepath.Join(b.TempDir(), "ix.v2")
	if err := WriteFile(path, mem, FormatV2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		NewSharded(ix, 2)
		b.StopTimer()
		ix.Close()
		b.StartTimer()
	}
}

// TestShardedFloorProbMatchesIndex: P(w|C) over the shards' summed
// token counts, which is what the coordinator smooths with, is the
// index's own.
func TestShardedFloorProbMatchesIndex(t *testing.T) {
	ix := buildRandomIndex(t, 40, 3)
	sh := NewSharded(ix, 4)
	var toks int64
	for s := 0; s < sh.NumShards(); s++ {
		toks += sh.Shard(s).TotalTokens()
	}
	for _, cf := range []int64{0, 1, 2, 17, ix.TotalTokens()} {
		if got, want := FloorProb(cf, toks), ix.FloorProb(cf); got != want {
			t.Fatalf("FloorProb(%d): sharded %v != index %v", cf, got, want)
		}
	}
}
