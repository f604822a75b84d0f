package index

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// openV2Heap opens a FormatV2 image from a heap slice (no mmap), so
// tests can corrupt postings bytes AFTER Open's CRC scan accepted them
// — simulating bit rot under a live mapping.
func openV2Heap(t *testing.T, data []byte) *Index {
	t.Helper()
	ix, err := openV2(data, func() error { return nil })
	if err != nil {
		t.Fatalf("openV2: %v", err)
	}
	return ix
}

// streamPair returns a streaming cursor and its eagerly-decoded
// reference row for the same term of the same v2 image (decoded from a
// separate Open so the streamed index stays untouched).
func streamPair(t *testing.T, img []byte, term string) (*Index, int32, *Postings) {
	t.Helper()
	ix := openV2Heap(t, img)
	id, ok := ix.StreamableTerm(term)
	if !ok {
		t.Fatalf("term %q not streamable", term)
	}
	ref := openV2Heap(t, append([]byte(nil), img...))
	p := ref.PostingsFor(term)
	if err := ref.Err(); err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	return ix, id, p
}

// TestStreamCursorMatchesSliceCursor: full differential — every walk a
// streaming cursor can take (next-walk, advance to every present and
// absent document, peeks at every position) must agree with a slice
// cursor over the decoded row, and so must the position lists a
// positions-mode cursor serves. Block sizes force single-block,
// partial-trailing-block and whole-list-in-one-block shapes.
func TestStreamCursorMatchesSliceCursor(t *testing.T) {
	for _, bs := range []int{1, 3, 4, 7, 1 << 14} {
		ix := randomIndex(t, 150, 23)
		if err := ix.SetBlockSize(bs); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := encodeV2(&buf, ix); err != nil {
			t.Fatal(err)
		}
		for _, term := range []string{"a", "b", "z"} {
			sx, id, p := streamPair(t, buf.Bytes(), term)
			label := fmt.Sprintf("bs=%d term=%q", bs, term)

			// Walk with Next in positions mode, checking Doc/Freq/Rank/
			// PeekNext/Positions at every step.
			var sc TermCursor
			sc.resetStream(sx, id, true)
			if sc.Len() != len(p.Docs) {
				t.Fatalf("%s: Len=%d want %d", label, sc.Len(), len(p.Docs))
			}
			for i := range p.Docs {
				if sc.Doc() != p.Docs[i] || sc.Rank() != i {
					t.Fatalf("%s: step %d at (%d, rank %d), want (%d, %d)", label, i, sc.Doc(), sc.Rank(), p.Docs[i], i)
				}
				want := DocEnd
				if i+1 < len(p.Docs) {
					want = p.Docs[i+1]
				}
				if got := sc.PeekNext(); got != want {
					t.Fatalf("%s: step %d PeekNext=%d want %d", label, i, got, want)
				}
				if got := sc.Freq(); got != p.Freqs[i] {
					t.Fatalf("%s: step %d Freq=%d want %d", label, i, got, p.Freqs[i])
				}
				if got := sc.Positions(); !slices.Equal(got, p.Positions[i]) {
					t.Fatalf("%s: step %d Positions=%v want %v", label, i, got, p.Positions[i])
				}
				sc.Next()
			}
			if sc.Doc() != DocEnd || sc.Rank() != len(p.Docs) {
				t.Fatalf("%s: after walk at (%d, rank %d)", label, sc.Doc(), sc.Rank())
			}
			if sc.Next() != DocEnd || sc.PeekNext() != DocEnd {
				t.Fatalf("%s: exhausted cursor moved", label)
			}
			if decoded := sc.Decoded; sc.Positions() != nil || sc.Decoded != decoded {
				t.Fatalf("%s: an exhausted cursor served positions or decoded again", label)
			}

			// Advance from a fresh cursor to every possible target.
			for target := DocID(0); target <= DocID(sx.NumDocs()); target++ {
				var st, sl TermCursor
				st.ResetStream(sx, id)
				sl.Reset(p)
				gd, wd := st.Advance(target), sl.Advance(target)
				if gd != wd || st.Rank() != sl.Rank() {
					t.Fatalf("%s: Advance(%d) = (%d, rank %d), want (%d, %d)", label, target, gd, st.Rank(), wd, sl.Rank())
				}
				if gd != DocEnd && st.Freq() != sl.Freq() {
					t.Fatalf("%s: Advance(%d) Freq %d vs %d", label, target, st.Freq(), sl.Freq())
				}
				// One skip decodes at most the landing block, never the
				// blocks it skipped over: decoded < total on any
				// multi-block list.
				if st.Decoded > 1 {
					t.Fatalf("%s: Advance(%d) decoded %d of %d blocks", label, target, st.Decoded, st.NumBlocks())
				}
			}

			// Seeded random interleavings of Next/Advance/Freq/PeekNext/
			// Positions, in positions mode.
			rng := rand.New(rand.NewSource(int64(bs)))
			var st, sl TermCursor
			st.resetStream(sx, id, true)
			sl.Reset(p)
			for op := 0; op < 500 && st.Doc() != DocEnd; op++ {
				switch rng.Intn(5) {
				case 0:
					if g, w := st.Next(), sl.Next(); g != w {
						t.Fatalf("%s: op %d Next %d vs %d", label, op, g, w)
					}
				case 1:
					target := st.Doc() + DocID(rng.Intn(2*bs+2))
					if g, w := st.Advance(target), sl.Advance(target); g != w {
						t.Fatalf("%s: op %d Advance(%d) %d vs %d", label, op, target, g, w)
					}
				case 2:
					if g, w := st.Freq(), sl.Freq(); g != w {
						t.Fatalf("%s: op %d Freq %d vs %d", label, op, g, w)
					}
				case 3:
					if g, w := st.PeekNext(), sl.PeekNext(); g != w {
						t.Fatalf("%s: op %d PeekNext %d vs %d", label, op, g, w)
					}
				case 4:
					if g, w := st.Positions(), sl.Positions(); !slices.Equal(g, w) {
						t.Fatalf("%s: op %d Positions %v vs %v", label, op, g, w)
					}
				}
				if st.Rank() != sl.Rank() {
					t.Fatalf("%s: op %d rank %d vs %d", label, op, st.Rank(), sl.Rank())
				}
			}
			if err := sx.Err(); err != nil {
				t.Fatalf("%s: healthy file recorded %v", label, err)
			}
		}
	}
}

// TestTermCursorEmptyRow: a slice-mode cursor over a nil or empty row —
// an out-of-vocabulary leaf's — starts exhausted, and every accessor on
// it is inert.
func TestTermCursorEmptyRow(t *testing.T) {
	for name, p := range map[string]*Postings{"nil": nil, "empty": {}} {
		var c TermCursor
		c.Reset(p)
		if c.Doc() != DocEnd || c.Len() != 0 || c.Rank() != 0 {
			t.Errorf("%s: Doc=%d Len=%d Rank=%d, want exhausted", name, c.Doc(), c.Len(), c.Rank())
		}
		if c.Advance(3) != DocEnd || c.Next() != DocEnd || c.PeekNext() != DocEnd || c.Freq() != 0 {
			t.Errorf("%s: an accessor moved an exhausted cursor", name)
		}
	}
}

// TestStreamCursorSingleBlockTerm: a term whose whole list fits one
// block exercises the one-block edges (peek past the last block, park
// then decode, advance beyond the end).
func TestStreamCursorSingleBlockTerm(t *testing.T) {
	ix := randomIndex(t, 40, 9)
	if err := ix.SetBlockSize(DefaultBlockSize); err != nil { // df << 128: exactly one block
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encodeV2(&buf, ix); err != nil {
		t.Fatal(err)
	}
	sx, id, p := streamPair(t, buf.Bytes(), "z")
	if nb := len(sx.blockBounds[id]); nb != 1 {
		t.Fatalf("want exactly one block, got %d", nb)
	}
	var c TermCursor
	c.ResetStream(sx, id)
	if c.NumBlocks() != 1 {
		t.Fatalf("NumBlocks=%d", c.NumBlocks())
	}
	// Parked on the first doc without decoding.
	if c.Doc() != p.Docs[0] || c.Decoded != 0 {
		t.Fatalf("parked at %d decoded=%d, want %d decoded=0", c.Doc(), c.Decoded, p.Docs[0])
	}
	// Advance to the last posting (last slot of the only block).
	last := p.Docs[len(p.Docs)-1]
	if got := c.Advance(last); got != last || c.Rank() != len(p.Docs)-1 {
		t.Fatalf("Advance(last)=%d rank=%d", got, c.Rank())
	}
	if c.Next() != DocEnd || c.Rank() != len(p.Docs) {
		t.Fatal("Next past the last slot did not exhaust")
	}
	// Advance beyond the whole list from a fresh cursor.
	c.ResetStream(sx, id)
	if got := c.Advance(last + 1); got != DocEnd {
		t.Fatalf("Advance past the list = %d", got)
	}
	if err := sx.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamCursorBlockBoundarySlots: with a forced tiny block size,
// documents landing on the last slot of a block and a trailing partial
// block are where the blk/j arithmetic can go wrong; check Doc/Rank/
// Freq at exactly those seams, plus PeekNext across each boundary.
func TestStreamCursorBlockBoundarySlots(t *testing.T) {
	const bs = 4
	// 10 docs all containing "w": df=10 = 2 full blocks + a partial of 2.
	b := NewBuilder(analysis.Analyzer{})
	for d := 0; d < 10; d++ {
		b.Add(fmt.Sprintf("D%02d", d), strings.Repeat("w ", d+1)+"x")
	}
	ix := b.Build()
	if err := ix.SetBlockSize(bs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encodeV2(&buf, ix); err != nil {
		t.Fatal(err)
	}
	sx, id, p := streamPair(t, buf.Bytes(), "w")
	if len(p.Docs) != 10 || len(sx.blockBounds[id]) != 3 {
		t.Fatalf("shape: df=%d blocks=%d", len(p.Docs), len(sx.blockBounds[id]))
	}
	for _, slot := range []int{bs - 1, bs, 2*bs - 1, 2 * bs, len(p.Docs) - 1} {
		var c TermCursor
		c.ResetStream(sx, id)
		if got := c.Advance(p.Docs[slot]); got != p.Docs[slot] || c.Rank() != slot {
			t.Fatalf("slot %d: Advance=%d rank=%d", slot, got, c.Rank())
		}
		if c.Freq() != p.Freqs[slot] {
			t.Fatalf("slot %d: Freq=%d want %d", slot, c.Freq(), p.Freqs[slot])
		}
		want := DocEnd
		if slot+1 < len(p.Docs) {
			want = p.Docs[slot+1]
		}
		if got := c.PeekNext(); got != want {
			t.Fatalf("slot %d: PeekNext=%d want %d", slot, got, want)
		}
	}
	// Walking off the last slot of the trailing partial block exhausts.
	var c TermCursor
	c.ResetStream(sx, id)
	c.Advance(p.Docs[len(p.Docs)-1])
	if c.Next() != DocEnd {
		t.Fatal("Next off the partial block did not exhaust")
	}
	if err := sx.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamCursorCRCFailingBlock: bytes of a middle block rot AFTER
// Open's scan accepted the file; an Advance whose target lands inside
// that block must degrade — cursor exhausts, the canonical checksum
// error lands on Index.Err — and must not panic or return garbage.
func TestStreamCursorCRCFailingBlock(t *testing.T) {
	const bs = 4
	ix := randomIndex(t, 150, 23)
	if err := ix.SetBlockSize(bs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encodeV2(&buf, ix); err != nil {
		t.Fatal(err)
	}
	sx, id, p := streamPair(t, buf.Bytes(), "a")
	if len(sx.blockBounds[id]) < 3 {
		t.Fatalf("need >=3 blocks, got %d", len(sx.blockBounds[id]))
	}
	// Rot the LAST byte of block 1 (the leading uvarint stays readable,
	// so the cursor parks fine and the CRC check is what catches it).
	lz := sx.lazy
	ext := lz.extents[int(lz.starts[id])+1]
	lz.post[ext.off+int64(ext.size)-1] ^= 0xFF

	// A target strictly inside block 1 forces the decode.
	target := p.Docs[bs] + 1
	if target > p.Docs[2*bs-1] {
		t.Fatalf("block 1 of %q holds a single document; pick another seed", "a")
	}
	var c TermCursor
	c.ResetStream(sx, id)
	if got := c.Advance(target); got != DocEnd {
		t.Fatalf("Advance into rotted block = %d, want DocEnd", got)
	}
	err := sx.Err()
	if err == nil {
		t.Fatal("rotted block decoded without recording an error")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("recorded %v, want the canonical checksum error", err)
	}
	// The dead cursor stays dead and harmless.
	if c.Next() != DocEnd || c.Advance(0) != DocEnd || c.Freq() != 0 {
		t.Fatal("exhausted-by-corruption cursor came back to life")
	}
}

// tamperExtent redirects term id's block b directory entry by shift
// bytes and shrinks it by shrink, re-stamping the CRC so the decode is
// reached — modelling a CRC-consistent directory whose offset points
// mid-block (shift > 0) or truncates the block (shrink > 0).
func tamperExtent(t *testing.T, ix *Index, id int32, b, shift, shrink int) {
	t.Helper()
	lz := ix.lazy
	ext := &lz.extents[int(lz.starts[id])+b]
	ext.off += int64(shift)
	ext.size -= int32(shift + shrink)
	if ext.size <= 0 {
		t.Fatal("tamper consumed the whole block")
	}
	ext.crc = crc32.ChecksumIEEE(lz.post[ext.off : ext.off+int64(ext.size)])
}

// TestStreamErrorTaxonomyMatchesEager: for the same tampered directory
// entry — offset pointing mid-block, or size truncating the block — the
// streaming cursor must record exactly the error the whole-row reader
// behind PostingsFor records (same wrap, same taxonomy). Walked with Next so both paths
// meet the tampered block as their first failure.
func TestStreamErrorTaxonomyMatchesEager(t *testing.T) {
	const bs = 4
	src := randomIndex(t, 150, 23)
	if err := src.SetBlockSize(bs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encodeV2(&buf, src); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	for _, tc := range []struct {
		name          string
		shift, shrink int
	}{
		{"mid-block offset", 1, 0},
		{"deep mid-block offset", 3, 0},
		{"truncated block", 0, 1},
		{"shifted and truncated", 2, 2},
	} {
		// Eager leg: decode the term's whole row, collect the recorded
		// error.
		eager := openV2Heap(t, append([]byte(nil), img...))
		eid, ok := eager.StreamableTerm("a")
		if !ok {
			t.Fatal("term a not streamable")
		}
		tamperExtent(t, eager, eid, 1, tc.shift, tc.shrink)
		eager.PostingsFor("a")
		eagerErr := eager.Err()

		// Streaming leg: identical tamper, full Next-walk (decodes blocks
		// in the same order the row reader does).
		stream := openV2Heap(t, append([]byte(nil), img...))
		sid, _ := stream.StreamableTerm("a")
		tamperExtent(t, stream, sid, 1, tc.shift, tc.shrink)
		var c TermCursor
		c.ResetStream(stream, sid)
		for c.Doc() != DocEnd {
			c.Freq()
			c.Next()
		}
		streamErr := stream.Err()

		if eagerErr == nil && streamErr == nil {
			// The tampered suffix happened to re-parse cleanly AND match
			// the stored bounds — not possible for these shifts on this
			// corpus, and a silent pass would void the test.
			t.Fatalf("%s: neither path noticed the tamper", tc.name)
		}
		if eagerErr == nil || streamErr == nil {
			t.Fatalf("%s: eager=%v stream=%v — one path stayed silent", tc.name, eagerErr, streamErr)
		}
		if eagerErr.Error() != streamErr.Error() {
			t.Fatalf("%s: taxonomy diverged:\n  eager:  %v\n  stream: %v", tc.name, eagerErr, streamErr)
		}
	}
}

// TestStreamCursorParkedOnCRCFailingBlock: the cursor parks on the
// rotted block (peek succeeds — only the CRC is off), and the first
// Freq that forces the decode is what degrades it.
func TestStreamCursorParkedOnCRCFailingBlock(t *testing.T) {
	const bs = 4
	ix := randomIndex(t, 150, 23)
	if err := ix.SetBlockSize(bs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encodeV2(&buf, ix); err != nil {
		t.Fatal(err)
	}
	sx, id, p := streamPair(t, buf.Bytes(), "a")
	lz := sx.lazy
	ext := lz.extents[int(lz.starts[id])+1]
	lz.post[ext.off+int64(ext.size)-1] ^= 0xFF

	var c TermCursor
	c.ResetStream(sx, id)
	// Advance exactly to block 1's first doc: parks without decoding.
	first := p.Docs[bs]
	if got := c.Advance(first); got != first || c.Decoded != 0 {
		t.Fatalf("park: Advance=%d decoded=%d", got, c.Decoded)
	}
	if sx.Err() != nil {
		t.Fatalf("parking alone recorded %v", sx.Err())
	}
	if got := c.Freq(); got != 0 {
		t.Fatalf("Freq over rotted block = %d, want 0 (degraded)", got)
	}
	if c.Doc() != DocEnd || sx.Err() == nil {
		t.Fatal("decode failure did not exhaust + record")
	}
}
