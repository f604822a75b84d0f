package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
)

// segDoc is one generated document for segment tests.
type segDoc struct {
	name, text string
}

// segCorpus generates a deterministic corpus over a tiny vocabulary
// (repeats and multi-occurrence docs included, so positions and
// frequencies are exercised).
func segCorpus(n, seed int) []segDoc {
	rng := rand.New(rand.NewSource(int64(seed)))
	vocab := []string{"a", "a", "b", "b", "c", "d", "e", "f", "g", "zz"}
	docs := make([]segDoc, n)
	for d := range docs {
		var sb strings.Builder
		for i, l := 0, 2+rng.Intn(18); i < l; i++ {
			sb.WriteString(vocab[rng.Intn(len(vocab))])
			sb.WriteByte(' ')
		}
		docs[d] = segDoc{name: fmt.Sprintf("D%05d", d), text: sb.String()}
	}
	return docs
}

// openSegForTest opens a Segmented in a temp dir, closing it at test
// end.
func openSegForTest(t *testing.T, flushDocs int) *Segmented {
	t.Helper()
	s, err := OpenSegmented(t.TempDir(), analysis.Analyzer{}, WithFlushDocs(flushDocs))
	if err != nil {
		t.Fatalf("OpenSegmented: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// requireEquivalent asserts got and want index the same documents
// identically: same doc sequence, lengths, token totals, and per-term
// postings (docs, freqs, positions). Term-ID order may differ (merges
// assign by first occurrence); term text is the join key.
func requireEquivalent(t *testing.T, got, want *Index) {
	t.Helper()
	if g, w := got.NumDocs(), want.NumDocs(); g != w {
		t.Fatalf("NumDocs %d, want %d", g, w)
	}
	if g, w := got.TotalTokens(), want.TotalTokens(); g != w {
		t.Fatalf("live tokens %d, want %d", g, w)
	}
	for d := 0; d < want.NumDocs(); d++ {
		if g, w := got.DocName(DocID(d)), want.DocName(DocID(d)); g != w {
			t.Fatalf("doc %d name %q, want %q", d, g, w)
		}
		if g, w := got.DocLen(DocID(d)), want.DocLen(DocID(d)); g != w {
			t.Fatalf("doc %d len %d, want %d", d, g, w)
		}
	}
	if g, w := got.NumTerms(), want.NumTerms(); g != w {
		t.Fatalf("NumTerms %d, want %d", g, w)
	}
	for id := 0; id < want.NumTerms(); id++ {
		text := want.TermText(int32(id))
		wp := want.PostingsByID(int32(id))
		gid, ok := got.terms[text]
		if !ok {
			t.Fatalf("term %q missing", text)
		}
		gp := got.PostingsByID(gid)
		if len(gp.Docs) != len(wp.Docs) {
			t.Fatalf("term %q: %d postings, want %d", text, len(gp.Docs), len(wp.Docs))
		}
		for i := range wp.Docs {
			if gp.Docs[i] != wp.Docs[i] || gp.Freqs[i] != wp.Freqs[i] {
				t.Fatalf("term %q posting %d: (%d,%d), want (%d,%d)", text, i, gp.Docs[i], gp.Freqs[i], wp.Docs[i], wp.Freqs[i])
			}
			if len(gp.Positions[i]) != len(wp.Positions[i]) {
				t.Fatalf("term %q posting %d: %d positions, want %d", text, i, len(gp.Positions[i]), len(wp.Positions[i]))
			}
			for j := range wp.Positions[i] {
				if gp.Positions[i][j] != wp.Positions[i][j] {
					t.Fatalf("term %q posting %d position %d mismatch", text, i, j)
				}
			}
		}
	}
}

// liveTokens is the snapshot's live collection length: its segments'
// live token counts, summed.
func liveTokens(sn *Snapshot) int64 {
	var n int64
	for i := 0; i < sn.NumSegments(); i++ {
		n += sn.SegmentLiveTokens(i)
	}
	return n
}

// monolithic builds the reference index over docs.
func monolithic(docs []segDoc) *Index {
	b := NewBuilder(analysis.Analyzer{})
	for _, d := range docs {
		b.Add(d.name, d.text)
	}
	return b.Build()
}

func TestSegmentedIngestFlushCompact(t *testing.T) {
	docs := segCorpus(137, 1)
	s := openSegForTest(t, 25)
	for _, d := range docs {
		if err := s.Ingest(d.name, d.text); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	st := s.Stats()
	if st.DiskSegments != 5 || st.BufferDocs != 12 {
		t.Fatalf("stats %+v, want 5 disk segments + 12 buffered", st)
	}
	if st.LiveDocs != len(docs) || st.Ingested != int64(len(docs)) {
		t.Fatalf("stats %+v, want %d live docs", st, len(docs))
	}

	sn := s.Acquire()
	defer sn.Release()
	if sn.numDocs != len(docs) {
		t.Fatalf("snapshot live docs %d, want %d", sn.numDocs, len(docs))
	}
	mono := monolithic(docs)
	if liveTokens(sn) != mono.TotalTokens() {
		t.Fatalf("snapshot live tokens %d, want %d", liveTokens(sn), mono.TotalTokens())
	}
	names := sn.LiveDocNames()
	for i, d := range docs {
		if names[i] != d.name {
			t.Fatalf("live doc %d = %q, want %q", i, names[i], d.name)
		}
	}

	// Compact everything committed into one segment; the buffer stays.
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st := s.Stats(); st.DiskSegments != 1 || st.BufferDocs != 12 || st.LiveDocs != len(docs) {
		t.Fatalf("post-compact stats %+v", st)
	}
	// The merged segment must be structurally identical to a monolithic
	// build of the first 125 documents.
	sn2 := s.Acquire()
	defer sn2.Release()
	requireEquivalent(t, sn2.Segment(0), monolithic(docs[:125]))
}

func TestSegmentedDeleteAndGlobalDocs(t *testing.T) {
	docs := segCorpus(60, 2)
	s := openSegForTest(t, 20)
	for _, d := range docs {
		if err := s.Ingest(d.name, d.text); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a committed doc, a buffered doc, and a missing name.
	for _, want := range []struct {
		name string
		n    int
	}{{"D00007", 1}, {"D00055", 1}, {"NOPE", 0}} {
		n, err := s.DeleteBatch([]string{want.name})
		if err != nil {
			t.Fatalf("Delete(%s): %v", want.name, err)
		}
		if n != want.n {
			t.Fatalf("Delete(%s) = %d, want %d", want.name, n, want.n)
		}
	}
	var survivors []segDoc
	for _, d := range docs {
		if d.name != "D00007" && d.name != "D00055" {
			survivors = append(survivors, d)
		}
	}
	sn := s.Acquire()
	defer sn.Release()
	if sn.numDocs != len(survivors) {
		t.Fatalf("NumDocs %d, want %d", sn.numDocs, len(survivors))
	}
	mono := monolithic(survivors)
	if liveTokens(sn) != mono.TotalTokens() {
		t.Fatalf("live tokens %d, want %d", liveTokens(sn), mono.TotalTokens())
	}
	names := sn.LiveDocNames()
	for i, d := range survivors {
		if names[i] != d.name {
			t.Fatalf("live doc %d = %q, want %q", i, names[i], d.name)
		}
	}
	// GlobalDoc must assign survivor ranks: walk every segment's live
	// docs and check the mapping is the dense global sequence.
	next := DocID(0)
	for i := 0; i < sn.NumSegments(); i++ {
		ix := sn.Segment(i)
		dead := sn.Dead(i)
		for d := 0; d < ix.NumDocs(); d++ {
			if dead.Has(DocID(d)) {
				continue
			}
			if g := sn.GlobalDoc(i, DocID(d)); g != next {
				t.Fatalf("segment %d doc %d: global %d, want %d", i, d, g, next)
			}
			next++
		}
	}

	// Compaction drops the tombstones physically.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DiskSegments != 1 || st.Tombstones != 0 || st.LiveDocs != len(survivors) {
		t.Fatalf("post-compact stats %+v", st)
	}
	sn2 := s.Acquire()
	defer sn2.Release()
	requireEquivalent(t, sn2.Segment(0), mono)
}

func TestSegmentedDeleteReingest(t *testing.T) {
	s := openSegForTest(t, 4)
	for i := 0; i < 6; i++ {
		if err := s.Ingest("dup", "a b c"); err != nil {
			t.Fatal(err)
		}
	}
	// All six live (the index is append-only; same-name docs coexist).
	if st := s.Stats(); st.LiveDocs != 6 {
		t.Fatalf("LiveDocs %d, want 6", st.LiveDocs)
	}
	n, err := s.DeleteBatch([]string{"dup"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("Delete removed %d, want 6", n)
	}
	if st := s.Stats(); st.LiveDocs != 0 {
		t.Fatalf("LiveDocs %d, want 0", st.LiveDocs)
	}
	if err := s.Ingest("dup", "c d"); err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()
	if sn.numDocs != 1 || liveTokens(sn) != 2 {
		t.Fatalf("after re-ingest: %d docs, %d tokens", sn.numDocs, liveTokens(sn))
	}
}

func TestSegmentedReopenDurability(t *testing.T) {
	dir := t.TempDir()
	docs := segCorpus(50, 3)
	s, err := OpenSegmented(dir, analysis.Analyzer{}, WithFlushDocs(16))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := s.Ingest(d.name, d.text); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.DeleteBatch([]string{"D00003"}); err != nil {
		t.Fatal(err)
	}
	// 48 committed (3 flushes of 16), 2 buffered; the buffered docs are
	// volatile and must be gone after reopen — that is the documented
	// crash-consistency contract.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSegmented(dir, analysis.Analyzer{}, WithFlushDocs(16))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.DiskSegments != 3 || st.BufferDocs != 0 || st.LiveDocs != 47 || st.Tombstones != 1 {
		t.Fatalf("reopened stats %+v", st)
	}
	sn := s2.Acquire()
	defer sn.Release()
	var survivors []segDoc
	for _, d := range docs[:48] {
		if d.name != "D00003" {
			survivors = append(survivors, d)
		}
	}
	if liveTokens(sn) != monolithic(survivors).TotalTokens() {
		t.Fatal("reopened token total diverges from surviving docs")
	}
}

func TestSegmentedSnapshotPinsCompactedFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, analysis.Analyzer{}, WithFlushDocs(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, d := range segCorpus(24, 4) {
		if err := s.Ingest(d.name, d.text); err != nil {
			t.Fatal(err)
		}
	}
	old := s.Acquire()
	oldNames := old.LiveDocNames()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// The pinned snapshot still reads the pre-compaction segments, and
	// their files must still exist.
	for _, name := range []string{"seg-1.v2", "seg-2.v2", "seg-3.v2"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("pinned segment file %s vanished: %v", name, err)
		}
	}
	for i, n := range old.LiveDocNames() {
		if n != oldNames[i] {
			t.Fatal("pinned snapshot changed under compaction")
		}
	}
	old.Release()
	// Pin dropped: the compacted-away files must now be deleted.
	for _, name := range []string{"seg-1.v2", "seg-2.v2", "seg-3.v2"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("segment file %s not deleted after last release (err=%v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-4.v2")); err != nil {
		t.Fatalf("merged segment missing: %v", err)
	}
}

func TestSegmentedTornSegmentFileFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, analysis.Analyzer{}, WithFlushDocs(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range segCorpus(8, 5) {
		if err := s.Ingest(d.name, d.text); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Tear the second committed segment: truncate it mid-file. The
	// manifest names it, so recovery must fail loudly, not serve a
	// partial corpus.
	path := filepath.Join(dir, "seg-2.v2")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(dir, analysis.Analyzer{}); err == nil {
		t.Fatal("OpenSegmented accepted a torn segment file")
	}
}

func TestSegmentedRecoveryCleansOrphans(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, analysis.Analyzer{}, WithFlushDocs(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range segCorpus(8, 6) {
		if err := s.Ingest(d.name, d.text); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Simulate a crash between a merged-segment write and its manifest
	// commit: an orphan segment file plus temp debris.
	for _, name := range []string{"seg-99.v2", ".sqe-index-crashed", ".sqe-manifest-crashed"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := OpenSegmented(dir, analysis.Analyzer{}, WithFlushDocs(4))
	if err != nil {
		t.Fatalf("reopen with orphans: %v", err)
	}
	defer s2.Close()
	for _, name := range []string{"seg-99.v2", ".sqe-index-crashed", ".sqe-manifest-crashed"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived recovery (err=%v)", name, err)
		}
	}
	if st := s2.Stats(); st.DiskSegments != 2 || st.LiveDocs != 8 {
		t.Fatalf("recovered stats %+v", st)
	}
}

func TestSegmentedFaultedMutationsLeaveStateUnchanged(t *testing.T) {
	docs := segCorpus(30, 7)
	s := openSegForTest(t, 10)
	for _, d := range docs[:25] {
		if err := s.Ingest(d.name, d.text); err != nil {
			t.Fatal(err)
		}
	}
	snBefore := s.Acquire()
	defer snBefore.Release()
	before := s.Stats()

	for _, pt := range []fault.Point{fault.SegmentFlush, fault.SegmentManifest} {
		fault.Arm(fault.NewRegistry(1).Set(pt, fault.Policy{ErrRate: 1}))
		err := s.Flush()
		fault.Disarm()
		if err == nil || !fault.IsInjected(err) {
			t.Fatalf("%s: Flush err = %v, want injected", pt, err)
		}
	}
	for _, pt := range []fault.Point{fault.SegmentMerge, fault.SegmentManifest} {
		fault.Arm(fault.NewRegistry(1).Set(pt, fault.Policy{ErrRate: 1}))
		err := s.Compact()
		fault.Disarm()
		if err == nil || !fault.IsInjected(err) {
			t.Fatalf("%s: Compact err = %v, want injected", pt, err)
		}
	}
	// A delete batch is all-or-nothing: the list below spans both
	// committed segments and the buffer, and the failed commit must leave
	// every one of its documents live — the buffered one too, although its
	// tombstone would not have needed the manifest — and the manifest file
	// as it was.
	manifest, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{{"D00001"}, {"D00002", "D00015", "D00022"}} {
		fault.Arm(fault.NewRegistry(1).Set(fault.SegmentManifest, fault.Policy{ErrRate: 1}))
		n, err := s.DeleteBatch(names)
		fault.Disarm()
		if n != 0 || !fault.IsInjected(err) {
			t.Fatalf("DeleteBatch(%v) = %d, %v; want 0 and the injected fault", names, n, err)
		}
	}
	if now, err := os.ReadFile(filepath.Join(s.dir, manifestName)); err != nil || !bytes.Equal(now, manifest) {
		t.Fatalf("faulted mutations rewrote the manifest (err %v)", err)
	}

	after := s.Stats()
	if after.DiskSegments != before.DiskSegments || after.BufferDocs != before.BufferDocs ||
		after.LiveDocs != before.LiveDocs || after.Tombstones != before.Tombstones ||
		after.ManifestCommits != before.ManifestCommits || after.Gen != before.Gen {
		t.Fatalf("faulted mutations changed state: before %+v after %+v", before, after)
	}
	snAfter := s.Acquire()
	for i := 0; i < snAfter.NumSegments(); i++ {
		if len(snAfter.Tombstones(i)) != 0 || snAfter.Dead(i) != nil {
			t.Fatalf("segment %d carries tombstones after failed deletes", i)
		}
	}
	snAfter.Release()

	// The failed mutations must all be retryable now that faults are off.
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after fault: %v", err)
	}
	if _, err := s.DeleteBatch([]string{"D00001"}); err != nil {
		t.Fatalf("Delete after fault: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact after fault: %v", err)
	}
	if st := s.Stats(); st.LiveDocs != 24 || st.DiskSegments != 1 || st.Tombstones != 0 {
		t.Fatalf("post-recovery stats %+v", st)
	}
}

func TestSegmentedClosedOperations(t *testing.T) {
	s := openSegForTest(t, 4)
	if err := s.Ingest("d", "a b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close should be a no-op")
	}
	if s.Acquire() != nil {
		t.Fatal("Acquire after Close should return nil")
	}
	if err := s.Ingest("d", "x"); err == nil {
		t.Fatal("Ingest after Close should fail")
	}
	if _, err := s.DeleteBatch([]string{"d"}); err == nil {
		t.Fatal("Delete after Close should fail")
	}
	if err := s.Flush(); err == nil {
		t.Fatal("Flush after Close should fail")
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact after Close should fail")
	}
}

func TestSegmentedAnalyzerMismatchFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, analysis.Analyzer{}, WithFlushDocs(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range segCorpus(4, 8) {
		if err := s.Ingest(d.name, d.text); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if _, err := OpenSegmented(dir, analysis.Standard()); err == nil {
		t.Fatal("OpenSegmented accepted segments built with a different analyzer")
	}
}
