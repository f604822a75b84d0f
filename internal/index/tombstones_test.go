package index

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// ingestAll streams docs into s.
func ingestAll(t *testing.T, s *Segmented, docs []segDoc) {
	t.Helper()
	for _, d := range docs {
		if err := s.Ingest(d.name, d.text); err != nil {
			t.Fatalf("Ingest(%s): %v", d.name, err)
		}
	}
}

// recount is the from-scratch correction: the row's occurrences and
// documents among segment i's tombstones.
func recount(sn *Snapshot, i int, docs []DocID, freqs []int32) Correction {
	var c Correction
	for j, d := range docs {
		if sn.Dead(i).Has(d) {
			c.CF += int64(freqs[j])
			c.DF++
		}
	}
	return c
}

// checkCorrections holds every term's correction and one phrase's and
// one window's, in every segment of sn, to the recount of sn itself. It
// reports instead of failing so reader goroutines can call it.
func checkCorrections(sn *Snapshot) error {
	var sc PositionalScratch
	for i := 0; i < sn.NumSegments(); i++ {
		ix := sn.Segment(i)
		if got, want := slices.IsSorted(sn.Tombstones(i)), true; got != want {
			return fmt.Errorf("segment %d: tombstones not ascending", i)
		}
		for _, d := range sn.Tombstones(i) {
			if !sn.Dead(i).Has(d) {
				return fmt.Errorf("segment %d: tombstone %d missing from the dead set", i, d)
			}
		}
		for id := int32(0); id < int32(ix.NumTerms()); id++ {
			p := ix.PostingsByID(id)
			got, want := sn.TermCorrection(i, id), recount(sn, i, p.Docs, p.Freqs)
			if got.CF != want.CF || got.DF != want.DF {
				return fmt.Errorf("gen %d segment %d term %q: correction cf=%d df=%d, recount cf=%d df=%d",
					sn.Gen(), i, ix.TermText(id), got.CF, got.DF, want.CF, want.DF)
			}
		}
		phrase, _ := ix.PhraseLeaf([]string{"a", "b"}, &sc)
		window, _ := ix.WindowLeaf([]string{"a", "c"}, 6, &sc)
		for _, p := range []*Positional{phrase, window} {
			got, want := sn.PositionalCorrection(i, p), recount(sn, i, p.Docs, p.Freqs)
			if got.CF != want.CF || got.DF != want.DF {
				return fmt.Errorf("gen %d segment %d positional: correction cf=%d df=%d, recount cf=%d df=%d",
					sn.Gen(), i, got.CF, got.DF, want.CF, want.DF)
			}
		}
	}
	return nil
}

// TestSegmentedDeleteBatch: a batch counts exactly (repeats and unknown
// names contribute nothing), costs one manifest commit and one snapshot
// however many segments it touches, and none when it only touches the
// buffer.
func TestSegmentedDeleteBatch(t *testing.T) {
	docs := segCorpus(50, 21)
	s := openSegForTest(t, 20) // two committed segments, ten buffered
	ingestAll(t, s, docs)
	s.Acquire().Release() // publish the pending ingests
	before := s.Stats()
	if before.DiskSegments != 2 || before.BufferDocs != 10 {
		t.Fatalf("fixture: %+v", before)
	}

	names := []string{"D00003", "D00017", "D00025", "NOPE", "D00044", "D00003", "D00039"}
	n, err := s.DeleteBatch(names)
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if n != 5 || after.Tombstones != 5 || after.LiveDocs != 45 || after.Deleted != 5 {
		t.Fatalf("DeleteBatch = %d, stats %+v; want 5 deleted", n, after)
	}
	if got := after.ManifestCommits - before.ManifestCommits; got != 1 {
		t.Fatalf("batch over two segments and the buffer made %d manifest commits, want 1", got)
	}
	if got := after.Gen - before.Gen; got != 1 {
		t.Fatalf("batch installed %d snapshots, want 1", got)
	}
	sn := s.Acquire()
	defer sn.Release()
	want := [][]DocID{{3, 17}, {5, 19}, {4}}
	for i := range want {
		if !slices.Equal(sn.Tombstones(i), want[i]) {
			t.Fatalf("segment %d tombstones %v, want %v", i, sn.Tombstones(i), want[i])
		}
	}
	if err := checkCorrections(sn); err != nil {
		t.Fatal(err)
	}

	// A buffer-only batch persists nothing; a batch of nothing changes
	// nothing, not even the epoch.
	if n, err := s.DeleteBatch([]string{"D00049", "D00044"}); err != nil || n != 1 {
		t.Fatalf("buffer-only batch = %d, %v", n, err)
	}
	if n, err := s.DeleteBatch([]string{"NOPE", "D00003"}); err != nil || n != 0 {
		t.Fatalf("empty batch = %d, %v", n, err)
	}
	if n, err := s.DeleteBatch(nil); err != nil || n != 0 {
		t.Fatalf("nil batch = %d, %v", n, err)
	}
	last := s.Stats()
	if last.ManifestCommits != after.ManifestCommits || last.Gen != after.Gen+1 || last.Tombstones != 6 {
		t.Fatalf("after buffer-only and empty batches: %+v (was %+v)", last, after)
	}
}

// TestSegmentedAcquireDuringCompact: a reader must not wait for a merge.
// The mutator is parked inside Compact, after documents were ingested
// and never published (no delete, no flush): Acquire has to return
// anyway, see those documents, and pin the pre-merge segments.
func TestSegmentedAcquireDuringCompact(t *testing.T) {
	docs := segCorpus(48, 23)
	s := openSegForTest(t, 20)
	ingestAll(t, s, docs[:40])
	s.Acquire().Release()

	inMerge, resume := make(chan struct{}), make(chan struct{})
	s.mergeGate = func() { close(inMerge); <-resume }
	ingestAll(t, s, docs[40:]) // pending publication when Compact starts
	compacted := make(chan error, 1)
	go func() { compacted <- s.Compact() }()
	<-inMerge

	acquired := make(chan *Snapshot, 1)
	go func() { acquired <- s.Acquire() }()
	var sn *Snapshot
	select {
	case sn = <-acquired:
	case <-time.After(10 * time.Second):
		close(resume)
		t.Fatal("Acquire blocked behind a merge in progress")
	}
	if sn.NumDocs() != len(docs) {
		t.Errorf("snapshot during the merge sees %d documents, want all %d ingested", sn.NumDocs(), len(docs))
	}
	if sn.NumSegments() != 3 {
		t.Errorf("snapshot during the merge has %d segments, want the two pre-merge ones and the buffer", sn.NumSegments())
	}
	if st := s.Stats(); st.DiskSegments != 2 || st.Compactions != 0 {
		t.Errorf("Stats during the merge: %+v", st)
	}

	close(resume)
	if err := <-compacted; err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// The pinned view still reads the merged-away files.
	for _, name := range []string{"seg-1.v2", "seg-2.v2"} {
		if _, err := os.Stat(filepath.Join(s.Dir(), name)); err != nil {
			t.Errorf("pinned pre-merge segment %s vanished: %v", name, err)
		}
	}
	if got := sn.LiveDocNames(); len(got) != len(docs) || got[0] != docs[0].name || got[47] != docs[47].name {
		t.Errorf("pinned snapshot changed under the merge: %d names", len(got))
	}
	sn.Release()
	if st := s.Stats(); st.DiskSegments != 1 || st.LiveDocs != len(docs) {
		t.Fatalf("after the merge: %+v", st)
	}
}

// TestTombstoneCorrectionsIncremental: a correction costs one probe per
// tombstone the memo has not covered yet — all of them the first time,
// none on a repeat, only the new batch after a delete — and a reader on
// an older snapshot subtracts the batch it must not see without
// disturbing the memo.
func TestTombstoneCorrectionsIncremental(t *testing.T) {
	docs := segCorpus(300, 24)
	s := openSegForTest(t, 256) // one v2 segment, 44 buffered
	ingestAll(t, s, docs)
	first := []string{"D00002", "D00009", "D00100", "D00260", "D00299"}
	if _, err := s.DeleteBatch(first); err != nil {
		t.Fatal(err)
	}
	old := s.Acquire()
	defer old.Release()
	id, ok := old.Segment(0).TermID("a")
	if !ok {
		t.Fatal("fixture: term a missing")
	}
	if c := old.TermCorrection(0, id); c.Probes != 3 {
		t.Fatalf("first lookup probed %d tombstones, want the segment's 3", c.Probes)
	}
	if c := old.TermCorrection(0, id); c.Probes != 0 {
		t.Fatalf("repeat lookup probed %d tombstones, want 0", c.Probes)
	}

	second := []string{"D00050", "D00051", "D00052", "D00053", "D00270"}
	if _, err := s.DeleteBatch(second); err != nil {
		t.Fatal(err)
	}
	cur := s.Acquire()
	defer cur.Release()
	if c := cur.TermCorrection(0, id); c.Probes != 4 {
		t.Fatalf("lookup after a 4-document batch probed %d tombstones, want 4", c.Probes)
	}
	// The pinned reader is now behind the memo: it pays the same four
	// probes to subtract them, every time, and stores nothing.
	for range 2 {
		if c := old.TermCorrection(0, id); c.Probes != 4 {
			t.Fatalf("older snapshot probed %d tombstones, want 4", c.Probes)
		}
	}
	if c := cur.TermCorrection(0, id); c.Probes != 0 {
		t.Fatalf("the older reader disturbed the memo: %d probes", c.Probes)
	}
	for _, sn := range []*Snapshot{old, cur} {
		if err := checkCorrections(sn); err != nil {
			t.Fatal(err)
		}
	}

	// A segment with no tombstones never consults the memo; after a
	// reopen the log is the manifest's ascending order and corrections
	// still equal the recount.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	dir := s.Dir()
	s.Close()
	s2, err := OpenSegmented(dir, s.Analyzer(), WithFlushDocs(256))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.DeleteBatch([]string{"D00001"}); err != nil {
		t.Fatal(err)
	}
	sn := s2.Acquire()
	defer sn.Release()
	if got := len(sn.Tombstones(0)) + len(sn.Tombstones(1)); got != 11 {
		t.Fatalf("reopened index carries %d tombstones, want 11", got)
	}
	if err := checkCorrections(sn); err != nil {
		t.Fatal(err)
	}
}

// TestTombstoneCorrectionsConcurrent: readers pinned on old and new
// snapshots look corrections up while delete batches land; each one's
// cf/df must equal the recount of its own snapshot, whichever way the
// shared memo has moved meanwhile.
func TestTombstoneCorrectionsConcurrent(t *testing.T) {
	docs := segCorpus(400, 25)
	s := openSegForTest(t, 180) // two v2 segments and a 40-document buffer
	ingestAll(t, s, docs)
	if _, err := s.DeleteBatch([]string{"D00000", "D00200", "D00399"}); err != nil {
		t.Fatal(err)
	}
	pinned := s.Acquire()
	defer pinned.Release()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(snapshot func() *Snapshot, release bool) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sn := snapshot()
			if err := checkCorrections(sn); err != nil {
				t.Error(err)
				return
			}
			if release {
				sn.Release()
			}
		}
	}
	wg.Add(4)
	go reader(func() *Snapshot { return pinned }, false)
	go reader(func() *Snapshot { return pinned }, false)
	go reader(s.Acquire, true)
	go reader(s.Acquire, true)

	for b := 0; b < 12; b++ {
		var names []string
		for j := 0; j < 8; j++ {
			names = append(names, docs[(1+b*31+j*47)%len(docs)].name)
		}
		if _, err := s.DeleteBatch(names); err != nil {
			t.Errorf("DeleteBatch: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := checkCorrections(pinned); err != nil {
		t.Fatal(err)
	}
}
