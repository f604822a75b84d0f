package index

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func TestNewShardedClamps(t *testing.T) {
	ix := randomIndex(t, 3, 2)
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

// openV2File writes mem as a v2 file and opens it, closing it at test
// end, when Close must not fail.
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
	t.Cleanup(func() {
		if err := ix.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return ix
}

// TestNewShardedCorruptParent: a parent the split cannot trust. A closed
// one is not read: its terms split as empty and Err names the Close. A
// block rotted after Open drops its term from every shard and records
// the checksum failure. A CRC-consistent file whose stored MaxTF lies
// records the disagreement, and its shards carry the honest MaxTF —
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
				want := maxTF(ref.PostingsFor("a").Freqs)
				id, _ := sh.Shard(s).TermID("a")
				if got := sh.Shard(s).StoredMaxTF(id); got != want {
					t.Fatalf("n=%d shard %d: MaxTF of a %d, want the honest %d", n, s, got, want)
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
