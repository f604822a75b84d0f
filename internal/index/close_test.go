package index

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// openFDs counts this process's open file descriptors via /proc/self/fd;
// ok is false where that interface does not exist (non-Linux).
func openFDs(t *testing.T) (int, bool) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	return len(ents), true
}

// TestCloseIdempotent: Close must be safe to call any number of times,
// on every index kind — in-memory (no-op) and v2 (first call unmaps,
// later calls return nil without touching the dead mapping). Repeated Closes must release the mapping exactly
// once: the MappedRegions balance (and, on Linux, the open-FD count)
// returns to its starting value.
func TestCloseIdempotent(t *testing.T) {
	baseRegions := MappedRegions()
	baseFDs, haveFDs := openFDs(t)

	mem := randomIndex(t, 50, 3)
	for i := 0; i < 3; i++ {
		if err := mem.Close(); err != nil {
			t.Fatalf("in-memory close #%d: %v", i, err)
		}
	}

	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := WriteFile(path, mem, FormatV2); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ix.Close(); err != nil {
			t.Fatalf("v2 close #%d: %v", i, err)
		}
	}

	if got := MappedRegions(); got != baseRegions {
		t.Fatalf("MappedRegions = %d after all Closes, want the starting %d (leaked or double-released a mapping)", got, baseRegions)
	}
	if haveFDs {
		if got, _ := openFDs(t); got > baseFDs {
			t.Fatalf("open FDs grew from %d to %d across open/close cycles", baseFDs, got)
		}
	}
}

// TestOpenCloseLeakFree: repeated open/close cycles — the bench-style
// re-Open-per-query pattern — must not accumulate mappings or file
// descriptors; neither must a segmented index's lifecycle, where
// snapshot refcounts (not Close calls) release the per-segment mmaps.
func TestOpenCloseLeakFree(t *testing.T) {
	mem := randomIndex(t, 80, 5)
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := WriteFile(path, mem, FormatV2); err != nil {
		t.Fatal(err)
	}
	baseRegions := MappedRegions()
	baseFDs, haveFDs := openFDs(t)

	for i := 0; i < 20; i++ {
		ix, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if p := ix.PostingsFor("a"); p == nil {
			t.Fatal("no postings for a")
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := MappedRegions(); got != baseRegions {
		t.Fatalf("MappedRegions = %d after open/close cycles, want %d", got, baseRegions)
	}

	// Segmented lifecycle: flushes map segments, compaction + snapshot
	// releases unmap the replaced ones, Close releases the rest.
	dir := t.TempDir()
	s, err := OpenSegmented(dir, analysis.Analyzer{}, WithFlushDocs(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s.Ingest("doc", "a b c d"); err != nil {
			t.Fatal(err)
		}
	}
	sn := s.Acquire()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	sn.Release() // last pin on the pre-compaction segments: unmap + delete
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := MappedRegions(); got != baseRegions {
		t.Fatalf("MappedRegions = %d after segmented lifecycle, want %d", got, baseRegions)
	}
	if haveFDs {
		if got, _ := openFDs(t); got > baseFDs {
			t.Fatalf("open FDs grew from %d to %d", baseFDs, got)
		}
	}
}

// TestUseAfterCloseMaterialize: decoding a term's row after Close must
// record the canonical error and read the term as absent — never read
// the unmapped region. A row decoded before Close is the caller's heap
// copy and stays valid.
func TestUseAfterCloseMaterialize(t *testing.T) {
	ix := randomIndex(t, 100, 17)
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := WriteFile(path, ix, FormatV2); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	pre := got.PostingsFor("a")
	if pre == nil || len(pre.Docs) == 0 {
		t.Fatal("pre-close decode failed")
	}
	want := ix.PostingsFor("a")
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pre.Docs, want.Docs) || !slices.Equal(pre.Positions[len(pre.Positions)-1], want.Positions[len(want.Positions)-1]) {
		t.Fatal("the row decoded before Close did not survive it")
	}
	// No term decodes any more: empty row + recorded error.
	for _, term := range []string{"a", "b"} {
		if p := got.PostingsFor(term); p != nil && len(p.Docs) != 0 {
			t.Fatalf("post-close decode of %q produced %d postings", term, len(p.Docs))
		}
	}
	err = got.Err()
	if err == nil {
		t.Fatal("post-close decode left Err() nil")
	}
	if !strings.Contains(err.Error(), "after Close") {
		t.Fatalf("recorded %v, want the after-Close error", err)
	}
}

// TestUseAfterCloseStreamCursor: a streaming cursor reset or advanced
// after Close must exhaust with the recorded error, not read unmapped
// memory. Covers both orders: cursor created after Close, and a live
// parked cursor whose index closes under it.
func TestUseAfterCloseStreamCursor(t *testing.T) {
	src := randomIndex(t, 150, 23)
	if err := src.SetBlockSize(4); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encodeV2(&buf, src); err != nil {
		t.Fatal(err)
	}

	// Cursor created after Close: starts exhausted, error recorded.
	ix := openV2Heap(t, buf.Bytes())
	id, ok := ix.StreamableTerm("a")
	if !ok {
		t.Fatal("term a not streamable")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	var c TermCursor
	c.ResetStream(ix, id)
	if c.Doc() != DocEnd {
		t.Fatalf("post-close ResetStream parked on %d", c.Doc())
	}
	err := ix.Err()
	if err == nil || !strings.Contains(err.Error(), "after Close") {
		t.Fatalf("recorded %v, want the after-Close error", err)
	}

	// Live parked cursor, index closes under it: the next decode-forcing
	// call degrades the cursor instead of touching the dead mapping.
	ix2 := openV2Heap(t, append([]byte(nil), buf.Bytes()...))
	id2, _ := ix2.StreamableTerm("a")
	var c2 TermCursor
	c2.ResetStream(ix2, id2)
	firstDoc := c2.Doc()
	if firstDoc == DocEnd || c2.Decoded != 0 {
		t.Fatalf("sanity: parked at %d decoded=%d", firstDoc, c2.Decoded)
	}
	if err := ix2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c2.Freq(); got != 0 {
		t.Fatalf("Freq after Close = %d, want 0 (degraded)", got)
	}
	if c2.Doc() != DocEnd {
		t.Fatal("cursor survived its index's Close")
	}
	if err := ix2.Err(); err == nil || !strings.Contains(err.Error(), "after Close") {
		t.Fatalf("recorded %v, want the after-Close error", err)
	}
	// Further motion on the dead cursor is inert.
	if c2.Next() != DocEnd || c2.Advance(firstDoc+1) != DocEnd || c2.PeekNext() != DocEnd {
		t.Fatal("dead cursor moved")
	}
}
