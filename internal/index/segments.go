package index

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/fault"
)

// Segmented is a live, incrementally updatable index organised as LSM-
// style immutable segments: a mutable in-memory buffer receives streamed
// documents and is flushed on size to immutable on-disk FormatV2
// segments; deletes tombstone documents in place; Compact merges the
// committed segments into one, dropping tombstones. Readers never see a
// half-applied mutation: every mutation installs a new immutable
// Snapshot (an epoch) under an atomic pointer, and in-flight queries pin
// the snapshot they started on via refcounts — a segment's mmap is
// closed (and a compacted-away file deleted) only after the last
// snapshot referencing it is released.
//
// Durability is manifest-rooted (see manifest.go): a segment exists once
// the manifest names it, tombstones of committed segments persist with
// the manifest, and the in-memory buffer is volatile by design — a crash
// loses at most the unflushed buffer, never a committed segment. Every
// commit is atomic (temp + fsync + rename), and OpenSegmented removes
// the orphan files a crash between a segment write and its manifest
// commit can leave behind.
//
// Scoring over a Snapshot is bit-identical to a monolithic index built
// from the same surviving documents in the same order — the contract
// search.SegmentedSearcher builds on and segment_diff_test.go enforces.
// The pieces of the argument live where they apply: global statistics
// here (NumDocs/TotalTokens/FloorProb are tombstone-adjusted exact
// sums), per-leaf statistics and DocID remapping in the searcher.
//
// A Segmented is safe for concurrent use: mutators serialise on an
// internal lock, readers are lock-free (one atomic load + refcount per
// query).
type Segmented struct {
	mu       sync.Mutex
	dir      string
	analyzer analysis.Analyzer
	// flushDocs is the buffer-size flush trigger, in documents.
	flushDocs int

	// disk holds the committed segments, ascending by sequence number —
	// which is ingestion order, the property global DocID assignment
	// relies on. tombs holds their authoritative tombstone sets; the
	// slices are replaced, never appended to, so snapshots alias them
	// safely.
	disk  []*segment
	tombs map[uint64][]DocID

	// buf accumulates streamed documents; bufTombs are deletes that hit
	// buffered docs. bufSealed caches the immutable copy of the buffer
	// at generation bufSealedGen — valid until the next Ingest (deletes
	// do not touch the builder, so the seal survives them).
	buf          *Builder
	bufTombs     []DocID
	bufSealed    *Index
	bufGen       uint64
	bufSealedGen uint64

	nextSeq uint64
	gen     uint64

	cur atomic.Pointer[Snapshot]
	// stale marks cur as behind the buffer: Ingest publishes lazily
	// (sealing the buffer on every streamed document would make ingest
	// quadratic), so Acquire rebuilds the snapshot on first use after a
	// batch of ingests. Flush, Delete, Compact and Close install
	// eagerly — they retire segment references, which must not wait for
	// the next reader.
	stale  atomic.Bool
	closed bool

	ingested    atomic.Int64
	deleted     atomic.Int64
	flushes     atomic.Int64
	compactions atomic.Int64
}

// segment is one committed on-disk segment. refs counts the snapshots
// referencing it; when the count drops to zero the mmap is closed, and —
// if the segment was compacted away (dead) — its file deleted.
type segment struct {
	seq  uint64
	path string
	ix   *Index
	refs atomic.Int32
	dead atomic.Bool
}

func (sg *segment) retain() { sg.refs.Add(1) }

func (sg *segment) release() {
	if sg.refs.Add(-1) != 0 {
		return
	}
	// Last reference: either the segment was compacted away or the
	// Segmented is shutting down. Either way the mapping goes; the file
	// goes only if the manifest no longer names it.
	_ = sg.ix.Close()
	if sg.dead.Load() {
		_ = os.Remove(sg.path)
	}
}

// SegmentedOption configures OpenSegmented.
type SegmentedOption func(*Segmented)

// DefaultFlushDocs is the buffer size (in documents) that triggers an
// automatic flush.
const DefaultFlushDocs = 512

// WithFlushDocs sets the buffer-size flush trigger; n <= 0 keeps the
// default.
func WithFlushDocs(n int) SegmentedOption {
	return func(s *Segmented) {
		if n > 0 {
			s.flushDocs = n
		}
	}
}

// OpenSegmented opens (or creates) a segmented index rooted at dir. It
// replays the manifest, removes orphan files left by a crash between a
// segment write and its manifest commit, opens every committed segment
// (a torn or corrupt segment file fails the open — the manifest named
// it, so its loss is data loss, not debris), and installs the initial
// snapshot. The buffer starts empty: unflushed documents are volatile
// by design.
func OpenSegmented(dir string, a analysis.Analyzer, opts ...SegmentedOption) (*Segmented, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if _, err := cleanOrphans(dir, m); err != nil {
		return nil, err
	}
	s := &Segmented{
		dir:       dir,
		analyzer:  a,
		flushDocs: DefaultFlushDocs,
		tombs:     make(map[uint64][]DocID),
		nextSeq:   m.NextSeq,
	}
	for _, opt := range opts {
		opt(s)
	}
	for _, e := range m.Segments {
		path := filepath.Join(dir, segFileName(e.Seq))
		ix, err := Open(path)
		if err != nil {
			s.closeSegmentsLocked()
			return nil, fmt.Errorf("segment %s: %w", segFileName(e.Seq), err)
		}
		if ix.Analyzer() != a {
			ix.Close()
			s.closeSegmentsLocked()
			return nil, fmt.Errorf("segment %s: analyzer mismatch", segFileName(e.Seq))
		}
		for _, d := range e.Tombs {
			if int(d) >= ix.NumDocs() {
				ix.Close()
				s.closeSegmentsLocked()
				return nil, fmt.Errorf("segment %s: tombstone %d out of range (%d docs)", segFileName(e.Seq), d, ix.NumDocs())
			}
		}
		s.disk = append(s.disk, &segment{seq: e.Seq, path: path, ix: ix})
		s.tombs[e.Seq] = e.Tombs
	}
	s.buf = NewBuilder(a)
	s.installLocked()
	return s, nil
}

// closeSegmentsLocked closes the segments opened so far on an
// OpenSegmented error path (no snapshot exists yet, so refs are unused).
func (s *Segmented) closeSegmentsLocked() {
	for _, sg := range s.disk {
		_ = sg.ix.Close()
	}
	s.disk = nil
}

// Dir returns the segment directory.
func (s *Segmented) Dir() string { return s.dir }

// Analyzer returns the analyzer documents are indexed with.
func (s *Segmented) Analyzer() analysis.Analyzer { return s.analyzer }

// SegmentedStats summarises a live index for operators and tests.
type SegmentedStats struct {
	// DiskSegments is the number of committed on-disk segments.
	DiskSegments int
	// BufferDocs is the number of documents in the unflushed buffer.
	BufferDocs int
	// LiveDocs is the number of searchable (non-tombstoned) documents.
	LiveDocs int
	// Tombstones is the number of deleted-but-not-yet-compacted docs.
	Tombstones int
	// Gen is the snapshot epoch (bumps on every visible mutation).
	Gen uint64
	// Ingested, Deleted, Flushes, Compactions are lifetime counters.
	Ingested, Deleted, Flushes, Compactions int64
}

// Stats reports the live index's current state and lifetime counters.
func (s *Segmented) Stats() SegmentedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SegmentedStats{
		DiskSegments: len(s.disk),
		BufferDocs:   s.buf.NumDocs(),
		Gen:          s.gen,
		Ingested:     s.ingested.Load(),
		Deleted:      s.deleted.Load(),
		Flushes:      s.flushes.Load(),
		Compactions:  s.compactions.Load(),
	}
	for _, sg := range s.disk {
		st.LiveDocs += sg.ix.NumDocs() - len(s.tombs[sg.seq])
		st.Tombstones += len(s.tombs[sg.seq])
	}
	st.LiveDocs += s.buf.NumDocs() - len(s.bufTombs)
	st.Tombstones += len(s.bufTombs)
	return st
}

// NumDocs returns the number of buffered documents (Builder helper for
// the segmented index; the Builder tracks docs it has Added).
func (b *Builder) NumDocs() int { return len(b.docNames) }

// Ingest streams one document into the buffer, flushing to a new
// on-disk segment when the buffer reaches the flush threshold. The
// document is visible to every Acquire that starts after Ingest
// returns (publication is deferred to the next Acquire so that a burst
// of ingests costs one snapshot build, not one per document). On a
// flush error (disk failure, injected fault) the document IS ingested —
// it stays in the buffer, and the flush retries on the next trigger;
// the error reports the failed flush, not a lost write.
func (s *Segmented) Ingest(name, text string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("index: segmented index is closed")
	}
	s.buf.Add(name, text)
	s.bufGen++
	s.ingested.Add(1)
	if s.buf.NumDocs() >= s.flushDocs {
		if err := s.flushLocked(); err != nil {
			s.stale.Store(true)
			return fmt.Errorf("index: flush after ingest: %w", err)
		}
		return nil
	}
	s.stale.Store(true)
	return nil
}

// Delete tombstones every live document named name (committed or
// buffered) and returns how many were deleted. Deletes of committed
// documents persist immediately through a manifest commit; a commit
// failure leaves the index (memory and disk) unchanged. Deleting a name
// with no live document is a no-op, not an error.
func (s *Segmented) Delete(name string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("index: segmented index is closed")
	}
	// Stage the new tombstone sets as copies; nothing is visible until
	// the manifest (when needed) commits.
	newTombs := make(map[uint64][]DocID)
	count := 0
	for _, sg := range s.disk {
		cur := s.tombs[sg.seq]
		var add []DocID
		for id := 0; id < sg.ix.NumDocs(); id++ {
			if sg.ix.DocName(DocID(id)) == name && !containsDoc(cur, DocID(id)) {
				add = append(add, DocID(id))
			}
		}
		if len(add) > 0 {
			merged := append(append([]DocID(nil), cur...), add...)
			sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
			newTombs[sg.seq] = merged
			count += len(add)
		}
	}
	var newBufTombs []DocID
	for id := 0; id < s.buf.NumDocs(); id++ {
		if s.buf.docNames[id] == name && !containsDoc(s.bufTombs, DocID(id)) {
			newBufTombs = append(newBufTombs, DocID(id))
		}
	}
	if count == 0 && len(newBufTombs) == 0 {
		return 0, nil
	}
	if len(newTombs) > 0 {
		m := s.manifestLocked(newTombs)
		if err := writeManifest(s.dir, m); err != nil {
			return 0, err
		}
		for seq, t := range newTombs {
			s.tombs[seq] = t
		}
	}
	if len(newBufTombs) > 0 {
		count += len(newBufTombs)
		merged := append(append([]DocID(nil), s.bufTombs...), newBufTombs...)
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		s.bufTombs = merged
	}
	s.deleted.Add(int64(count))
	s.installLocked()
	return count, nil
}

// containsDoc reports whether sorted holds d.
func containsDoc(sorted []DocID, d DocID) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= d })
	return i < len(sorted) && sorted[i] == d
}

// manifestLocked renders the current committed state as a manifest,
// with override tombstone sets (keyed by seq) taking precedence.
func (s *Segmented) manifestLocked(override map[uint64][]DocID) *manifest {
	m := &manifest{NextSeq: s.nextSeq}
	for _, sg := range s.disk {
		t := s.tombs[sg.seq]
		if o, ok := override[sg.seq]; ok {
			t = o
		}
		m.Segments = append(m.Segments, manifestEntry{Seq: sg.seq, Tombs: t})
	}
	return m
}

// Flush forces the buffer into a new committed segment; a no-op on an
// empty buffer. Use it before Close for a durable shutdown.
func (s *Segmented) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("index: segmented index is closed")
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	return nil
}

// flushLocked seals the buffer, writes it as segment nextSeq, commits
// the manifest, and installs the new snapshot. On any error the
// in-memory state is unchanged (the buffer keeps its documents); a
// segment file written before a failed manifest commit is debris that
// the next flush overwrites or recovery removes.
func (s *Segmented) flushLocked() error {
	if s.buf.NumDocs() == 0 {
		return nil
	}
	if err := fault.Check(fault.SegmentFlush); err != nil {
		return err
	}
	sealed := s.sealBufferLocked()
	seq := s.nextSeq
	path := filepath.Join(s.dir, segFileName(seq))
	if err := WriteFile(path, sealed, FormatV2); err != nil {
		return err
	}
	ix, err := Open(path)
	if err != nil {
		return err
	}
	m := s.manifestLocked(nil)
	m.Segments = append(m.Segments, manifestEntry{Seq: seq, Tombs: s.bufTombs})
	m.NextSeq = seq + 1
	if err := writeManifest(s.dir, m); err != nil {
		ix.Close()
		return err
	}
	s.disk = append(s.disk, &segment{seq: seq, path: path, ix: ix})
	s.tombs[seq] = s.bufTombs
	s.nextSeq = seq + 1
	s.buf = NewBuilder(s.analyzer)
	s.bufTombs = nil
	s.bufSealed = nil
	s.bufGen++
	s.bufSealedGen = 0
	s.flushes.Add(1)
	s.installLocked()
	return nil
}

// Compact merges every committed segment into one, dropping tombstoned
// documents and preserving ingestion order, then swaps the segment set
// atomically. Old segment files are deleted once the last snapshot
// pinning them is released. The buffer is untouched. A no-op when
// nothing is committed.
func (s *Segmented) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("index: segmented index is closed")
	}
	if len(s.disk) == 0 {
		return nil
	}
	if err := fault.Check(fault.SegmentMerge); err != nil {
		return err
	}
	ins := make([]mergeInput, len(s.disk))
	for i, sg := range s.disk {
		ins[i] = mergeInput{ix: sg.ix, tombs: s.tombs[sg.seq]}
	}
	merged := mergeInputs(s.analyzer, ins)
	seq := s.nextSeq
	path := filepath.Join(s.dir, segFileName(seq))
	if err := WriteFile(path, merged, FormatV2); err != nil {
		return err
	}
	// The crash window: the merged file exists but the manifest does not
	// name it yet. An injected fault here models dying in that window —
	// the orphan file must be cleaned up by recovery, never served.
	if err := fault.Check(fault.SegmentMerge); err != nil {
		return err
	}
	ix, err := Open(path)
	if err != nil {
		return err
	}
	m := &manifest{Segments: []manifestEntry{{Seq: seq}}, NextSeq: seq + 1}
	if err := writeManifest(s.dir, m); err != nil {
		ix.Close()
		return err
	}
	old := s.disk
	s.disk = []*segment{{seq: seq, path: path, ix: ix}}
	s.tombs = map[uint64][]DocID{seq: nil}
	s.nextSeq = seq + 1
	for _, sg := range old {
		sg.dead.Store(true)
	}
	s.compactions.Add(1)
	s.installLocked()
	return nil
}

// Close releases the current snapshot's pin and marks the index closed.
// Mutations and new Acquires fail afterwards; snapshots already pinned
// stay fully usable until released, at which point the last releaser
// closes the segment mmaps. Unflushed buffer documents are discarded —
// call Flush first for a durable shutdown.
func (s *Segmented) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if old := s.cur.Swap(nil); old != nil {
		old.unref()
	}
	return nil
}

// sealBufferLocked returns an immutable Index over the buffer's current
// contents without consuming the Builder, reusing the cached seal when
// no document arrived since it was made. Row slices are copied at the
// outer level only: a past document's inner position slices never grow
// again (the Builder appends to them only while that document is the
// one being Added), so aliasing them is safe.
func (s *Segmented) sealBufferLocked() *Index {
	if s.bufSealed != nil && s.bufSealedGen == s.bufGen {
		return s.bufSealed
	}
	b := s.buf
	ix := &Index{
		analyzer:  b.analyzer,
		terms:     make(map[string]int32, len(b.terms)),
		termText:  append([]string(nil), b.termText...),
		docNames:  append([]string(nil), b.docNames...),
		docLens:   append([]int32(nil), b.docLens...),
		totalToks: b.totalToks,
		postings:  make([]Postings, len(b.termText)),
	}
	for t, id := range b.terms {
		ix.terms[t] = id
	}
	for id := range b.termText {
		ix.postings[id] = Postings{
			Docs:      append([]DocID(nil), b.docs[id]...),
			Freqs:     append([]int32(nil), b.freqs[id]...),
			Positions: append([][]int32(nil), b.pos[id]...),
		}
	}
	s.bufSealed = ix
	s.bufSealedGen = s.bufGen
	return ix
}

// installLocked builds the snapshot of the current state and publishes
// it, releasing the previous snapshot's pin. Fully tombstoned segments
// are skipped — they contribute no live documents and no statistics.
func (s *Segmented) installLocked() {
	s.gen++
	sn := &Snapshot{gen: s.gen}
	sn.refs.Store(1)
	for _, sg := range s.disk {
		t := s.tombs[sg.seq]
		live := sg.ix.NumDocs() - len(t)
		if live == 0 {
			continue
		}
		sg.retain()
		sn.views = append(sn.views, segView{seg: sg, ix: sg.ix, tombs: t, liveDocs: live})
	}
	if s.buf.NumDocs() > len(s.bufTombs) {
		sealed := s.sealBufferLocked()
		sn.views = append(sn.views, segView{ix: sealed, tombs: s.bufTombs, liveDocs: sealed.NumDocs() - len(s.bufTombs)})
	}
	sn.prefix = make([]int, len(sn.views)+1)
	for i, v := range sn.views {
		sn.prefix[i+1] = sn.prefix[i] + v.liveDocs
		sn.numDocs += v.liveDocs
		toks := v.ix.TotalTokens()
		for _, d := range v.tombs {
			toks -= int64(v.ix.DocLen(d))
		}
		sn.totalToks += toks
	}
	if old := s.cur.Swap(sn); old != nil {
		old.unref()
	}
	s.stale.Store(false)
}

// Acquire pins and returns the current snapshot; the caller must
// Release it. Returns nil after Close. When ingests have outrun the
// published snapshot (Ingest defers publication), Acquire installs a
// fresh one first — the caller always sees every document a completed
// Ingest streamed in.
func (s *Segmented) Acquire() *Snapshot {
	for {
		if s.stale.Load() {
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return nil
			}
			if s.stale.Load() {
				s.installLocked()
			}
			sn := s.cur.Load()
			// cur holds its own reference until the next install, so
			// under the mutex the pin cannot fail.
			ok := sn != nil && sn.tryRef()
			s.mu.Unlock()
			if !ok {
				return nil
			}
			return sn
		}
		sn := s.cur.Load()
		if sn == nil {
			return nil
		}
		if sn.tryRef() {
			return sn
		}
	}
}

// Snapshot is an immutable view of a Segmented at one epoch: the
// segment set, each segment's tombstones, and the exact live-collection
// statistics. A Snapshot pins its segments — their mmaps stay open and
// their files on disk — until Release.
type Snapshot struct {
	gen     uint64
	views   []segView
	refs    atomic.Int32
	numDocs int
	// prefix[i] is the global DocID of segment i's first live document;
	// prefix[len(views)] == numDocs.
	prefix    []int
	totalToks int64
}

// segView is one segment's slice of a snapshot.
type segView struct {
	seg      *segment // nil for the buffer's sealed copy
	ix       *Index
	tombs    []DocID
	liveDocs int
}

// tryRef acquires a reference unless the snapshot already drained.
func (sn *Snapshot) tryRef() bool {
	for {
		r := sn.refs.Load()
		if r == 0 {
			return false
		}
		if sn.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

func (sn *Snapshot) unref() {
	if sn.refs.Add(-1) != 0 {
		return
	}
	for i := range sn.views {
		if sn.views[i].seg != nil {
			sn.views[i].seg.release()
		}
	}
}

// Release unpins the snapshot. The last release of the last snapshot
// referencing a compacted-away segment closes its mmap and deletes its
// file.
func (sn *Snapshot) Release() { sn.unref() }

// Gen returns the snapshot's epoch (monotonic across mutations).
func (sn *Snapshot) Gen() uint64 { return sn.gen }

// NumSegments returns the number of segments with live documents.
func (sn *Snapshot) NumSegments() int { return len(sn.views) }

// Segment returns segment i's index. Tombstoned documents are still
// present in it; Tombstones(i) says which.
func (sn *Snapshot) Segment(i int) *Index { return sn.views[i].ix }

// Tombstones returns segment i's tombstoned local DocIDs, ascending.
// Shared with the snapshot; do not modify.
func (sn *Snapshot) Tombstones(i int) []DocID { return sn.views[i].tombs }

// SegmentLiveDocs returns segment i's live-document count.
func (sn *Snapshot) SegmentLiveDocs(i int) int { return sn.views[i].liveDocs }

// NumDocs returns the number of live documents across all segments.
func (sn *Snapshot) NumDocs() int { return sn.numDocs }

// TotalTokens returns the live collection length |C| in tokens:
// tombstoned documents' tokens are subtracted exactly, so smoothing
// matches a monolithic index over the surviving documents bit for bit.
func (sn *Snapshot) TotalTokens() int64 { return sn.totalToks }

// AvgDocLen returns the live mean document length.
func (sn *Snapshot) AvgDocLen() float64 {
	if sn.numDocs == 0 {
		return 0
	}
	return float64(sn.totalToks) / float64(sn.numDocs)
}

// FloorProb converts a live collection frequency into a probability
// with the same 0.5-occurrence OOV floor as Index.FloorProb.
func (sn *Snapshot) FloorProb(cf int64) float64 { return FloorProb(cf, sn.totalToks) }

// GlobalDoc maps segment i's local DocID to the global DocID a
// monolithic index over the surviving documents (in ingestion order)
// would assign: the segment's global base plus the document's
// survivor rank. Only meaningful for live (non-tombstoned) documents.
func (sn *Snapshot) GlobalDoc(i int, local DocID) DocID {
	t := sn.views[i].tombs
	before := sort.Search(len(t), func(j int) bool { return t[j] >= local })
	return DocID(sn.prefix[i] + int(local) - before)
}

// LiveDocNames returns the names of every live document in global DocID
// order — the exact document sequence a monolithic rebuild of this
// snapshot would index. Allocates; meant for oracles, tests and tools.
func (sn *Snapshot) LiveDocNames() []string {
	out := make([]string, 0, sn.numDocs)
	for i := range sn.views {
		v := &sn.views[i]
		for id := 0; id < v.ix.NumDocs(); id++ {
			if !containsDoc(v.tombs, DocID(id)) {
				out = append(out, v.ix.DocName(DocID(id)))
			}
		}
	}
	return out
}

// mergeInput is one segment (plus its tombstones) entering a merge.
type mergeInput struct {
	ix    *Index
	tombs []DocID
}

// mergeInputs builds the in-memory index equivalent to indexing every
// surviving document of ins, in order. It merges at the postings level
// — the raw text is not retained — which is exact: per-(term, doc)
// frequencies and positions are preserved verbatim and survivor DocIDs
// are assigned by rank, so the result is indistinguishable from a
// monolithic rebuild for every scoring path, including positional
// (phrase/window) evaluation. Term IDs are assigned by first occurrence
// across inputs; scoring never depends on term order.
func mergeInputs(a analysis.Analyzer, ins []mergeInput) *Index {
	out := &Index{analyzer: a, terms: make(map[string]int32)}
	base := 0
	for _, in := range ins {
		in.ix.materializeAll()
		n := in.ix.NumDocs()
		// remap[local] is the merged DocID, or -1 for tombstoned docs.
		remap := make([]int32, n)
		next := base
		for id := 0; id < n; id++ {
			if containsDoc(in.tombs, DocID(id)) {
				remap[id] = -1
				continue
			}
			remap[id] = int32(next)
			next++
			out.docNames = append(out.docNames, in.ix.DocName(DocID(id)))
			dl := in.ix.DocLen(DocID(id))
			out.docLens = append(out.docLens, dl)
			out.totalToks += int64(dl)
		}
		for tid := 0; tid < in.ix.NumTerms(); tid++ {
			p := in.ix.PostingsByID(int32(tid))
			text := in.ix.TermText(int32(tid))
			var mid int32 = -1
			for pi, doc := range p.Docs {
				nd := remap[doc]
				if nd < 0 {
					continue
				}
				if mid < 0 {
					var ok bool
					if mid, ok = out.terms[text]; !ok {
						mid = int32(len(out.termText))
						out.terms[text] = mid
						out.termText = append(out.termText, text)
						out.postings = append(out.postings, Postings{})
					}
				}
				mp := &out.postings[mid]
				mp.Docs = append(mp.Docs, DocID(nd))
				mp.Freqs = append(mp.Freqs, p.Freqs[pi])
				mp.Positions = append(mp.Positions, p.Positions[pi])
			}
		}
		base = next
	}
	return out
}
