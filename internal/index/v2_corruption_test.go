package index

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
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
// CRC-consistent image that understates term "a": MaxTF and MaxRatioTF
// are capped at 1 in every block AND in the whole-list summary, so
// Open's cross-check of the two still holds. honest is the same index
// with its true summaries.
func lyingV2Bytes(t *testing.T) (img []byte, honest *Index) {
	t.Helper()
	build := func() *Index {
		ix := randomIndex(t, 60, 5)
		if err := ix.SetBlockSize(4); err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ix, honest := build(), build()
	ix.ensureBounds()
	ix.ensureBlockBounds()
	id := ix.terms["a"]
	if ix.termBounds[id].MaxTF < 2 {
		t.Fatalf("corpus too uniform for the lie (MaxTF=%d)", ix.termBounds[id].MaxTF)
	}
	for b := range ix.blockBounds[id] {
		if ix.blockBounds[id][b].MaxTF > 1 {
			ix.blockBounds[id][b].MaxTF = 1
		}
		ix.blockBounds[id][b].MaxRatioTF = 1
	}
	ix.termBounds[id] = mergeBlockBounds(ix.blockBounds[id])
	var buf bytes.Buffer
	if err := encodeV2(&buf, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), honest
}

// TestV2LyingBlockBounds: a CRC-consistent file whose block directory
// understates a block's bounds cannot weaken pruning — the lazy decoder
// re-derives the summary from the decoded postings, adopts the exact
// values, and surfaces the event through Err. (Open's cross-check ties
// the whole-list bounds to the directory, so the lie must be consistent
// across both to get past Open at all.)
func TestV2LyingBlockBounds(t *testing.T) {
	img, honest := lyingV2Bytes(t)
	orig, _ := honest.BoundsFor("a")
	got, err := openBytes(t, img)
	if err != nil {
		t.Fatalf("consistently lying file must pass Open (lazy decode corrects it): %v", err)
	}
	defer got.Close()
	// Materialising the lying term corrects its summaries...
	if got.PostingsFor("a") == nil {
		t.Fatal("term a missing")
	}
	if b, _ := got.BoundsFor("a"); b != orig {
		t.Fatalf("bounds after materialisation = %+v, want corrected %+v", b, orig)
	}
	// ...and the event is on the record.
	if got.Err() == nil {
		t.Fatal("corrected bound lie left Err() nil")
	}
}

// TestV2WithVerifyRejectsLies: eager verification turns the same lie
// into an Open failure.
func TestV2WithVerifyRejectsLies(t *testing.T) {
	img, _ := lyingV2Bytes(t)
	p := filepath.Join(t.TempDir(), "ix")
	if err := os.WriteFile(p, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := Open(p, WithVerify()); err == nil {
		got.Close()
		t.Fatal("WithVerify accepted a file with lying block bounds")
	}
}
