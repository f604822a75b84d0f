package index

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/analysis"
)

// memoKey is k's memo key on ix; false when k resolves without one (an
// out-of-vocabulary constituent, a window narrower than its arity).
func memoKey(ix *Index, k positionalKey) (string, bool) {
	var sc PositionalScratch
	if len(k.terms) == 0 || k.window > 0 && k.window < len(k.terms) || !sc.termIDs(ix, k.terms) {
		return "", false
	}
	return string(appendPositionalKey(nil, k.window, sc.ids)), true
}

// entry returns the memo's entry under key, either generation, or nil.
func (m *positionalMemo) entry(key string) *Positional {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if e := m.cur[key]; e != nil {
		return e
	}
	return m.old[key]
}

// requireColdFill checks a carried entry against a cold fill of k on
// fresh, an index over the same file: rows, cf and bounds.
func requireColdFill(t *testing.T, fresh *Index, k positionalKey, got *Positional) {
	t.Helper()
	var sc PositionalScratch
	want, _ := k.leaf(fresh, &sc)
	requireMatchesReference(t, k.String(), fresh, got, Postings{Docs: want.Docs, Freqs: want.Freqs})
}

// TestCompactEverythingDeleted: when every committed document is
// deleted, no segment enters the merge, and there is nothing to carry.
func TestCompactEverythingDeleted(t *testing.T) {
	docs := segCorpus(20, 1)
	s := openSegForTest(t, 10)
	ingestAll(t, s, docs)
	var names []string
	for _, d := range docs {
		names = append(names, d.name)
	}
	if _, err := s.DeleteBatch(names); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LiveDocs != 0 || st.DiskSegments != 1 {
		t.Fatalf("after compacting an emptied index: %+v", st)
	}
}

// TestCompactCarriesNoUnfinishedFill: a leaf a reader is still filling
// on the base when Compact runs is uncharged, so it is not carried, and
// Compact does not wait for it; the leaves already admitted are
// carried. The reader's fill then completes as usual, and the merged
// segment fills the leaf itself. Run under -race -count=10 by `make
// race`.
func TestCompactCarriesNoUnfinishedFill(t *testing.T) {
	docs := segCorpus(240, 41)
	s := openSegForTest(t, 1<<20)
	for _, in := range [][]segDoc{docs[:200], docs[200:]} {
		ingestAll(t, s, in)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.DeleteBatch([]string{docs[7].name, docs[210].name}); err != nil {
		t.Fatal(err)
	}
	done, filling := positionalKey{terms: []string{"a", "b"}}, positionalKey{terms: []string{"b", "c"}, window: 4}
	sn := s.Acquire()
	defer sn.Release()
	base := sn.Segment(0)
	var sc PositionalScratch
	done.leaf(base, &sc)
	parkKey, _ := memoKey(base, filling)
	parked, release := make(chan struct{}), make(chan struct{})
	base.positionals.filled = func(key string) {
		if key == parkKey {
			close(parked)
			<-release
		}
	}
	read := make(chan *Positional, 1)
	go func() {
		var sc PositionalScratch
		p, _ := filling.leaf(base, &sc)
		read <- p
	}()
	<-parked
	compacted := make(chan error, 1)
	go func() { compacted <- s.Compact() }()
	select {
	case err := <-compacted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		close(release)
		t.Fatal("Compact waited on a fill still under way on its input")
	}
	close(release)
	twin := monolithic(docs[:200])
	requireMatchesReference(t, "the parked fill", base, <-read, filling.reference(twin))

	after := s.Acquire()
	defer after.Release()
	merged := after.Segment(0)
	if mk, _ := memoKey(merged, filling); merged.positionals.entry(mk) != nil {
		t.Fatal("the unfinished fill was carried")
	}
	mk, _ := memoKey(merged, done)
	if merged.positionals.entry(mk) == nil {
		t.Fatal("the finished fill was not carried")
	}
	fresh, err := Open(s.disk[0].path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, k := range []struct {
		positionalKey
		carried bool
	}{{done, true}, {filling, false}} {
		got, hit := k.leaf(merged, &sc)
		if hit != k.carried {
			t.Fatalf("%v: hit=%v on the merged segment", k.positionalKey, hit)
		}
		requireColdFill(t, fresh, k.positionalKey, got)
	}
}

// TestCarrySkipsFailedInputs: an input whose block rotted after Open
// (the TestPositionalFillFailure setup) may hold an empty entry in place
// of a failed fill's matches, so nothing is carried from a merge that
// includes it — whether it is the base, whose failed entry sits in its
// memo, or a small input, whose fill fails while carrying.
func TestCarrySkipsFailedInputs(t *testing.T) {
	images := make([][]byte, 2)
	for i, docs := range [][]segDoc{segCorpus(300, 43), segCorpus(60, 44)} {
		var buf bytes.Buffer
		if err := encodeV2(&buf, blockSized(t, docs, 4)); err != nil {
			t.Fatal(err)
		}
		images[i] = buf.Bytes()
	}
	open := func() []mergeInput {
		var ins []mergeInput
		for _, img := range images {
			ix := openV2Heap(t, append([]byte(nil), img...))
			ins = append(ins, mergeInput{ix: ix, dead: tombstones{}.with(ix.docLens, []DocID{3, 30}).dead})
		}
		return ins
	}
	var merged bytes.Buffer
	_, remaps, err := writeMerged(&merged, analysis.Analyzer{}, open())
	if err != nil {
		t.Fatal(err)
	}
	// rot flips a byte of every block of term in ix.
	rot := func(ix *Index, term string) {
		id, lz := ix.terms[term], ix.lazy
		for b := range ix.blockBounds[id] {
			ext := lz.extents[int(lz.starts[id])+b]
			lz.post[ext.off+int64(ext.size)-1] ^= 0xFF
		}
	}
	healthy, rotted := positionalKey{terms: []string{"c", "d"}}, positionalKey{terms: []string{"a", "b"}, window: 5}
	for _, leg := range []int{0, 1} {
		t.Run(fmt.Sprintf("rotted-input-%d", leg), func(t *testing.T) {
			ins := open()
			var sc PositionalScratch
			healthy.leaf(ins[0].ix, &sc)
			rot(ins[leg].ix, "a")
			if leg == 0 {
				if p, _ := rotted.leaf(ins[0].ix, &sc); len(p.Docs) != 0 || ins[0].ix.Err() == nil {
					t.Fatalf("the rotted base resolved %d documents, recorded %v", len(p.Docs), ins[0].ix.Err())
				}
			} else {
				rotted.leaf(ins[0].ix, &sc) // warm on the base only: carrying fills the rotted input
			}
			dst := openV2Heap(t, append([]byte(nil), merged.Bytes()...))
			dst.carryPositionals(ins, remaps)
			if ins[leg].ix.Err() == nil {
				t.Fatal("the rotted input recorded no error")
			}
			for _, k := range []positionalKey{healthy, rotted} {
				if mk, _ := memoKey(dst, k); dst.positionals.entry(mk) != nil {
					t.Fatalf("%v was carried from a merge with a failed input", k)
				}
			}
		})
	}
	t.Run("healthy", func(t *testing.T) {
		ins := open()
		var sc PositionalScratch
		healthy.leaf(ins[0].ix, &sc)
		rotted.leaf(ins[0].ix, &sc)
		dst := openV2Heap(t, append([]byte(nil), merged.Bytes()...))
		dst.carryPositionals(ins, remaps)
		ref := openV2Heap(t, append([]byte(nil), merged.Bytes()...))
		for _, k := range []positionalKey{healthy, rotted} {
			mk, _ := memoKey(dst, k)
			e := dst.positionals.entry(mk)
			if e == nil {
				t.Fatalf("%v was not carried", k)
			}
			requireColdFill(t, ref, k, e)
		}
	})
}
