package index

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// v2Bytes renders a small multi-block index into its FormatV2 image.
func v2Bytes(t *testing.T, bs int) []byte {
	t.Helper()
	ix := randomIndex(t, 80, 99)
	if err := ix.SetBlockSize(bs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encodeV2(&buf, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openBytes(t *testing.T, data []byte) (*Index, error) {
	t.Helper()
	p := filepath.Join(t.TempDir(), "ix")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open(p)
}

// TestV2FlipCorruption: EVERY single-byte flip in a v2 file must fail
// Open. The whole file is covered — header CRC, metadata section CRCs,
// and the per-block CRC scan leave no byte whose corruption can load
// quietly.
func TestV2FlipCorruption(t *testing.T) {
	good := v2Bytes(t, 4)
	if _, err := openBytes(t, good); err != nil {
		t.Fatalf("sanity: %v", err)
	}
	// Exhaustive on a small image; every offset, one bit each.
	for off := 0; off < len(good); off++ {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		if ix, err := openBytes(t, bad); err == nil {
			ix.Close()
			t.Fatalf("flip at offset %d/%d accepted", off, len(good))
		}
	}
}

// TestV2TruncateCorruption: every proper prefix fails Open.
func TestV2TruncateCorruption(t *testing.T) {
	good := v2Bytes(t, 8)
	for _, cut := range []int{0, 1, 5, 6, 7, 20, len(good) / 4, len(good) / 2, len(good) - 5, len(good) - 1} {
		if cut >= len(good) {
			continue
		}
		if ix, err := openBytes(t, good[:cut]); err == nil {
			ix.Close()
			t.Fatalf("truncation to %d/%d bytes accepted", cut, len(good))
		}
	}
	// Appended garbage must fail too (sections no longer tile the file).
	if ix, err := openBytes(t, append(append([]byte(nil), good...), 0xAA)); err == nil {
		ix.Close()
		t.Fatal("trailing garbage accepted")
	}
}

// TestV2HostilePrefix: a tiny file whose header claims enormous section
// lengths or counts must fail fast on validation, not allocate first.
// The allocation caps (prealloc, name/term length limits) keep even a
// CRC-consistent hostile file from forcing large allocations.
func TestV2HostilePrefix(t *testing.T) {
	// Claim 2^60-byte sections in an otherwise well-formed header.
	head := append([]byte(nil), indexMagicV2...)
	head = append(head, 0) // flags
	var u64 [8]byte
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(u64[:], 1<<60)
		head = append(head, u64[:]...)
	}
	head = crcTrail(head)
	if ix, err := openBytes(t, head); err == nil {
		ix.Close()
		t.Fatal("hostile section lengths accepted")
	}

	// A CRC-consistent docs section claiming 2^30 documents but holding
	// none: prealloc caps the up-front allocation and the decode fails on
	// section exhaustion.
	var tmp [binary.MaxVarintLen64]byte
	docs := tmp[:binary.PutUvarint(tmp[:], 1<<30)]
	docs = crcTrail(append([]byte(nil), docs...))
	empty := crcTrail(nil)
	img := append([]byte(nil), indexMagicV2...)
	img = append(img, 0)
	for _, n := range [4]int{len(docs), len(empty), len(empty), 0} {
		binary.LittleEndian.PutUint64(u64[:], uint64(n))
		img = append(img, u64[:]...)
	}
	img = crcTrail(img)
	img = append(img, docs...)
	img = append(img, empty...)
	img = append(img, empty...)
	if ix, err := openBytes(t, img); err == nil {
		ix.Close()
		t.Fatal("hostile doc count accepted")
	}
}

// lyingV2Bytes renders a small index at block size 4 into a
// CRC-consistent image that understates term "a": its MaxTF is capped
// at 1 in every block AND in its terms entry, so Open's cross-check of
// the two still holds. honest is the index the image lies about.
func lyingV2Bytes(t *testing.T) (img []byte, honest *Index) {
	t.Helper()
	return hostileV2Bytes(t, "bounds")
}

// hostileV2Bytes renders the index of lyingV2Bytes with term "a"
// written wrong in a way no checksum catches: "bounds" is
// lyingV2Bytes's lie; "list" caps only the terms entry's MaxTF, and
// "block" only the directory's; "cf" states a collection frequency one
// above the postings' sum; "trailing" appends a byte to each of a's
// blocks, inside the block's CRC. Every other term goes through
// appendRows, as encodeV2 writes it.
func hostileV2Bytes(t *testing.T, lie string) (img []byte, honest *Index) {
	t.Helper()
	const bs = 4
	honest = randomIndex(t, 60, 5)
	if err := honest.SetBlockSize(bs); err != nil {
		t.Fatal(err)
	}
	if m := honest.StoredMaxTF(honest.terms["a"]); m < 2 {
		t.Fatalf("corpus too uniform for the lie (MaxTF=%d)", m)
	}
	w := newV2Writer(honest.analyzer, bs)
	for d, name := range honest.docNames {
		w.doc(name, honest.docLens[d])
	}
	for id, text := range honest.termText {
		p := &honest.postings[id]
		cf := p.CollectionFreq()
		if text != "a" {
			w.appendRows(p, 0)
			w.endTerm(text, len(p.Docs), cf)
			continue
		}
		for lo := 0; lo < len(p.Docs); lo += bs {
			hi := min(lo+bs, len(p.Docs))
			bb := blockOf(p.Docs[lo:hi], p.Freqs[lo:hi])
			capped := BlockBounds{LastDoc: bb.LastDoc, MaxTF: min(bb.MaxTF, 1)}
			switch lie {
			case "bounds":
				w.appendBlock(p, lo, hi, capped)
			case "block":
				// endTerm takes the term's MaxTF from w.blocks: the honest one.
				w.appendBlock(p, lo, hi, capped)
				w.blocks[len(w.blocks)-1] = bb
			case "list":
				w.appendBlock(p, lo, hi, bb)
				w.blocks[len(w.blocks)-1] = capped
			case "trailing":
				start := len(w.post)
				w.post = append(encodeBlock(w.post, p, lo, hi, w.lastDoc()), 0)
				w.block(bb, start, crc32.ChecksumIEEE(w.post[start:]))
			default:
				w.appendBlock(p, lo, hi, bb)
			}
		}
		if lie == "cf" {
			cf++
		}
		w.endTerm(text, len(p.Docs), cf)
	}
	return w.image(), honest
}

// TestV2UnderstatedMaxTFRefusedAtOpen: a CRC-consistent file whose terms
// entry understates a term's MaxTF, or whose block directory understates
// the block that holds it, fails Open: the term's MaxTF must be the
// largest of its blocks'.
func TestV2UnderstatedMaxTFRefusedAtOpen(t *testing.T) {
	for _, lie := range []string{"list", "block"} {
		img, _ := hostileV2Bytes(t, lie)
		ix, err := openBytes(t, img)
		if err == nil {
			ix.Close()
			t.Fatalf("%s: Open accepted an understated MaxTF", lie)
		}
		if !strings.Contains(err.Error(), "stored MaxTF disagrees with its block directory") {
			t.Fatalf("%s: Open failed with %v, want the MaxTF disagreement", lie, err)
		}
	}
}

// TestV2LyingBlockBounds: a CRC-consistent file whose block directory
// understates a block's MaxTF passes Open when its terms entry tells the
// same lie (Open's cross-check ties the two, so the lie must be
// consistent across both to get that far), and the first read of the
// lying term — a whole row or a cursor's block — records the
// disagreement on Err.
func TestV2LyingBlockBounds(t *testing.T) {
	img, _ := lyingV2Bytes(t)
	for _, read := range []string{"row", "cursor"} {
		got, err := openBytes(t, img)
		if err != nil {
			t.Fatalf("consistently lying file must pass Open: %v", err)
		}
		defer got.Close()
		if got.Err() != nil {
			t.Fatalf("Err before any read: %v", got.Err())
		}
		if read == "row" {
			got.PostingsFor("a")
		} else {
			var c TermCursor
			c.ResetStream(got, got.terms["a"])
			c.Freq()
		}
		if err := got.Err(); err == nil || !strings.Contains(err.Error(), "stored bounds disagree") {
			t.Fatalf("%s read: recorded %v, want the bounds disagreement", read, err)
		}
	}
}

// TestV2StoredBoundsNeverRewritten: what Open validated is read-only.
// One goroutine streams the lying term with a cursor, reading its stored
// MaxTF as it goes, while another decodes its whole row through
// PostingsFor. Both record the lie and neither corrects it, so the two
// do not race (run under -race), and the stored MaxTFs read as Open
// loaded them afterwards.
func TestV2StoredBoundsNeverRewritten(t *testing.T) {
	img, _ := lyingV2Bytes(t)
	ix := openV2Heap(t, img)
	id, _ := ix.StreamableTerm("a")
	stored, blocks := ix.StoredMaxTF(id), slices.Clone(ix.blockBounds[id])
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var c TermCursor
		for range 20 {
			for c.ResetStream(ix, id); c.Doc() != DocEnd; c.Next() {
				c.Freq()
				ix.StoredMaxTF(id)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range 20 {
			ix.PostingsFor("a")
		}
	}()
	wg.Wait()
	if got := ix.StoredMaxTF(id); got != stored {
		t.Fatalf("stored MaxTF of a rewritten to %d, Open loaded %d", got, stored)
	}
	if !slices.Equal(ix.blockBounds[id], blocks) {
		t.Fatal("the block directory of a was rewritten")
	}
	if err := ix.Err(); err == nil || !strings.Contains(err.Error(), "stored bounds disagree") {
		t.Fatalf("recorded %v, want the bounds disagreement", err)
	}
}

// TestV2BoundsCheckedOncePerBlock: a cursor compares a block's derived
// LastDoc and MaxTF with the directory on the block's first decode since Open
// only. Cursors racing over the lying term (run under -race) all see the
// lie recorded and leave every one of its extents marked, and no other
// term's; a later walk of the same blocks compares nothing, so with the
// latch cleared it records nothing.
func TestV2BoundsCheckedOncePerBlock(t *testing.T) {
	img, _ := lyingV2Bytes(t)
	ix := openV2Heap(t, img)
	id, _ := ix.StreamableTerm("a")
	lz := ix.lazy
	walk := func(positions bool) {
		var c TermCursor
		for c.resetStream(ix, id, positions); c.Doc() != DocEnd; c.Next() {
			c.Freq()
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				walk(g%2 == 1)
			}
		}()
	}
	wg.Wait()
	if err := ix.Err(); err == nil || !strings.Contains(err.Error(), "stored bounds disagree") {
		t.Fatalf("recorded %v, want the bounds disagreement", err)
	}
	for slot := range lz.extents {
		inA := slot >= int(lz.starts[id]) && slot < int(lz.starts[id+1])
		if lz.boundsOK.has(slot) != inA {
			t.Fatalf("extent %d: bounds checked = %v, want %v", slot, !inA, inA)
		}
	}
	lz.firstErr.Store(nil)
	walk(false)
	walk(true)
	if err := ix.Err(); err != nil {
		t.Fatalf("a block's second decode compared its bounds again: %v", err)
	}
}

// TestV2WithVerifyRejectsLies: files that pass Open's checks but lie
// about term "a" — its MaxTF, its cf, its blocks' bytes — fail Open
// under WithVerify, each with its own error.
func TestV2WithVerifyRejectsLies(t *testing.T) {
	for lie, want := range map[string]string{
		"bounds":   "stored bounds disagree",
		"cf":       "stored cf",
		"trailing": "trailing bytes",
	} {
		img, _ := hostileV2Bytes(t, lie)
		ix, err := openBytes(t, img)
		if err != nil {
			t.Fatalf("%s: the lie did not get past Open: %v", lie, err)
		}
		ix.Close()
		p := filepath.Join(t.TempDir(), "ix")
		if err := os.WriteFile(p, img, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Open(p, WithVerify())
		if err == nil {
			got.Close()
			t.Fatalf("%s: WithVerify accepted the lie", lie)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: WithVerify failed with %v, want %q", lie, err, want)
		}
	}
}
