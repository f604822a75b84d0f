package index

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
)

// FuzzBlockDecode feeds arbitrary bytes to the v2 block decoder. The
// contract under hostile input: an error or a valid decode — never a
// panic, never an unbounded allocation (position lists are clamped by
// prealloc, freqs by maxFreq) — and decode-accepts ⇒ round-trips:
// anything decodeBlock accepts must re-encode via encodeBlock to the
// exact input bytes and decode again to the same postings.
func FuzzBlockDecode(f *testing.F) {
	// Seed corpus: honestly encoded blocks of assorted shapes.
	seed := func(docs []DocID, freqs []int32, positions [][]int32, base DocID) {
		p := Postings{Docs: docs, Freqs: freqs, Positions: positions}
		f.Add(encodeBlock(nil, &p, 0, len(docs), base), int64(base), len(docs))
	}
	seed([]DocID{0}, []int32{1}, [][]int32{{0}}, -1)
	seed([]DocID{3, 5, 9}, []int32{2, 1, 3}, [][]int32{{0, 7}, {4}, {1, 2, 3}}, -1)
	seed([]DocID{12, 13}, []int32{1, 1}, [][]int32{{30}, {31}}, 9)
	f.Add([]byte{}, int64(-1), 0)
	f.Add([]byte{0x00}, int64(-1), 1)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, int64(-1), 1)
	// Mid-block offsets: what the decoder sees when a block-directory
	// entry points INTO a block instead of at its start (a CRC-consistent
	// hostile directory). The suffix of an honest encoding re-parses as a
	// different varint stream; the decoder must reject or re-validate it
	// like any other input — both the whole-row reader and the
	// streaming cursor route through this same decoder (see
	// TestStreamErrorTaxonomyMatchesEager for the parity check).
	{
		p := Postings{
			Docs:      []DocID{3, 5, 9, 21},
			Freqs:     []int32{2, 1, 3, 1},
			Positions: [][]int32{{0, 7}, {4}, {1, 2, 3}, {8}},
		}
		enc := encodeBlock(nil, &p, 0, len(p.Docs), -1)
		for _, off := range []int{1, 2, 3, len(enc) / 2, len(enc) - 1} {
			if off > 0 && off < len(enc) {
				f.Add(enc[off:], int64(-1), len(p.Docs))
				f.Add(enc[off:], int64(2), len(p.Docs)-1)
			}
		}
	}

	const numDocs = 64
	f.Fuzz(func(t *testing.T, data []byte, base64 int64, n int) {
		if n < 0 || n > 1<<10 {
			return
		}
		base := DocID(base64)
		if base < -1 || base >= numDocs {
			return
		}
		var p Postings
		bb, err := decodeBlock(data, base, n, numDocs, &p)
		if err != nil {
			return // rejecting corrupt input is the job; panicking is not
		}
		// Accepted ⇒ round-trips: re-encode the decoded postings and
		// decode again; postings and derived summary must be identical.
		// (Byte-identity is NOT required — binary.Uvarint accepts
		// non-minimal encodings, which re-encode shorter.)
		out := encodeBlock(nil, &p, 0, len(p.Docs), base)
		if len(out) > len(data) {
			t.Fatalf("re-encoding grew: %d bytes -> %d", len(data), len(out))
		}
		var q Postings
		bb2, err := decodeBlock(out, base, n, numDocs, &q)
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if bb2 != bb {
			t.Fatalf("round trip summary %+v != %+v", bb2, bb)
		}
		if len(q.Docs) != len(p.Docs) {
			t.Fatalf("round trip row count %d != %d", len(q.Docs), len(p.Docs))
		}
		for i := range p.Docs {
			if q.Docs[i] != p.Docs[i] || q.Freqs[i] != p.Freqs[i] {
				t.Fatalf("round trip posting %d diverges", i)
			}
		}
	})
}

// FuzzOpenV2 feeds arbitrary bytes to the whole-file v2 parser: an
// error or a usable lazy index, never a panic: anything parseV2 accepts
// must stream every term through a block cursor, recording any failure
// through Err, and must re-encode.
func FuzzOpenV2(f *testing.F) {
	b := NewBuilder(analysis.Standard())
	b.Add("DocA", "cable cars climb the steep hill")
	b.Add("DocB", "the tram shares rails with the cable car")
	b.Add("DocC", "funicular railways and cable cars")
	ix := b.Build()
	_ = ix.SetBlockSize(2)
	var buf bytes.Buffer
	if err := encodeV2(&buf, ix); err != nil {
		f.Fatal(err)
	}
	enc := buf.Bytes()
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(append([]byte(nil), indexMagicV2...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := parseV2(append([]byte(nil), data...), nil)
		if err != nil {
			return
		}
		_ = got.verify()
		var out bytes.Buffer
		if err := encodeV2(&out, got); err != nil {
			t.Fatalf("accepted index does not re-encode: %v", err)
		}
		got.Close()
	})
}
