package index

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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
// search.SegmentedSearcher builds on and the segmented-* rows of the root
// differential harness (differential_test.go) enforce.
// The pieces of the argument live where they apply: each segment's live
// document and token counts here (tombstoned documents subtracted
// exactly), their global sums, per-leaf statistics and DocID remapping
// in the searcher.
//
// A Segmented is safe for concurrent use: mutators serialise on an
// internal lock, readers are lock-free (one atomic load + refcount per
// query) unless ingests are pending publication, and then wait only on
// memory-speed sections — never on a flush, a merge or a manifest
// commit.
type Segmented struct {
	// mu serialises the mutators (Ingest, DeleteBatch, Flush, Compact,
	// Close) and is held across their disk I/O. pub guards the state a
	// snapshot is built from and is only ever held for memory-speed
	// sections: a mutator takes it, after mu, around each in-memory state
	// change; Acquire takes it alone to publish pending ingests. State
	// the mutators write is written under both locks, so it may be read
	// under either; state Acquire's publication writes (the seal, gen,
	// cur) is pub's alone.
	mu       sync.Mutex
	pub      sync.Mutex
	dir      string
	analyzer analysis.Analyzer
	// flushDocs is the buffer-size flush trigger, in documents.
	flushDocs int

	// disk holds the committed segments, ascending by sequence number —
	// which is ingestion order, the property global DocID assignment
	// relies on. Each carries its own delete-side state.
	disk []*segment

	// buf accumulates streamed documents; bufDel are the deletes that hit
	// buffered docs and bufNames indexes the buffer by document name (kept
	// at Ingest). bufSealed caches the immutable copy of the buffer at
	// generation bufSealedGen — valid until the next Ingest (deletes do
	// not touch the builder, so the seal survives them) — and bufMemo is
	// that seal's tombstone-correction memo.
	buf          *Builder
	bufDel       tombstones
	bufNames     *nameIndex
	bufSealed    *Index
	bufMemo      *corrections
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
	commits     atomic.Int64
	// Blocks compactions wrote, by tier (merge.go).
	mergeCopied, mergeSpliced, mergeEncoded atomic.Int64

	// mergeGate, when non-nil, runs inside Compact once the merge is
	// under way (mu held, nothing swapped yet). Tests park the mutator
	// there to prove readers do not wait on it.
	mergeGate func()
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

	// del is the segment's authoritative tombstone state and memo the
	// correction memo over its log; both live and die with the segment.
	del  tombstones
	memo *corrections
	// names finds the segment's documents, live or deleted, by name.
	// Memory-only and built under Segmented.mu — handed over by the buffer
	// at flush, built from the merged names at compact, and otherwise (a
	// segment found at open) on the first delete.
	names *nameIndex
}

// byName returns sg.names, building it on first use.
func (sg *segment) byName() *nameIndex {
	if sg.names == nil {
		sg.names = nameIndexOf(sg.ix.docNames)
	}
	return sg.names
}

// nameIndex maps a document name to the local DocIDs carrying it. Names
// are almost always unique, so the first document of a name sits in the
// map itself and only repeats pay for a slice.
type nameIndex struct {
	first map[string]DocID
	more  map[string][]DocID
}

// nameIndexOf indexes a document-name column by name.
func nameIndexOf(docNames []string) *nameIndex {
	n := &nameIndex{first: make(map[string]DocID, len(docNames))}
	for id, name := range docNames {
		n.add(name, DocID(id))
	}
	return n
}

func (n *nameIndex) add(name string, d DocID) {
	if _, dup := n.first[name]; !dup {
		n.first[name] = d
		return
	}
	if n.more == nil {
		n.more = make(map[string][]DocID)
	}
	n.more[name] = append(n.more[name], d)
}

// live appends to dst the documents named name that are not in dead.
func (n *nameIndex) live(dst []DocID, name string, dead DocSet) []DocID {
	d, ok := n.first[name]
	if !ok {
		return dst
	}
	if !dead.Has(d) {
		dst = append(dst, d)
	}
	for _, d := range n.more[name] {
		if !dead.Has(d) {
			dst = append(dst, d)
		}
	}
	return dst
}

func (sg *segment) retain() { sg.refs.Add(1) }

func (sg *segment) release() {
	if sg.refs.Add(-1) != 0 {
		return
	}
	// Last reference: the segment was compacted away, the Segmented is
	// shutting down, or every document of it is tombstoned (no snapshot
	// includes it any more; Compact removes its file when it commits).
	// Either way the mapping goes; the file goes only if the manifest no
	// longer names it.
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
		bufNames:  nameIndexOf(nil),
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
		del := tombstones{}.with(ix.docLens, e.Tombs)
		s.disk = append(s.disk, &segment{seq: e.Seq, path: path, ix: ix, del: del, memo: newCorrections(del.log)})
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
	// ManifestCommits counts the manifests committed (temp + fsync +
	// rename) since open: one per flush, per compaction, and per delete
	// batch that touched a committed segment.
	ManifestCommits int64
	// MergeBlocksCopied, MergeBlocksSpliced and MergeBlocksEncoded count
	// the postings blocks completed compactions wrote, by how: copied
	// from an input undecoded, an input's short last block extended in
	// place, or encoded from decoded postings (merge.go).
	MergeBlocksCopied, MergeBlocksSpliced, MergeBlocksEncoded int64
}

// Stats reports the live index's current state and lifetime counters.
// Like Acquire it does not wait on a mutator's disk I/O.
func (s *Segmented) Stats() SegmentedStats {
	s.pub.Lock()
	defer s.pub.Unlock()
	st := SegmentedStats{
		DiskSegments:    len(s.disk),
		BufferDocs:      s.buf.NumDocs(),
		Gen:             s.gen,
		Ingested:        s.ingested.Load(),
		Deleted:         s.deleted.Load(),
		Flushes:         s.flushes.Load(),
		Compactions:     s.compactions.Load(),
		ManifestCommits: s.commits.Load(),

		MergeBlocksCopied:  s.mergeCopied.Load(),
		MergeBlocksSpliced: s.mergeSpliced.Load(),
		MergeBlocksEncoded: s.mergeEncoded.Load(),
	}
	for _, sg := range s.disk {
		st.LiveDocs += sg.ix.NumDocs() - len(sg.del.sorted)
		st.Tombstones += len(sg.del.sorted)
	}
	st.LiveDocs += s.buf.NumDocs() - len(s.bufDel.sorted)
	st.Tombstones += len(s.bufDel.sorted)
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
	s.pub.Lock()
	id := s.buf.Add(name, text)
	s.bufNames.add(name, id)
	s.bufGen++
	s.stale.Store(true)
	s.pub.Unlock()
	s.ingested.Add(1)
	if s.buf.NumDocs() >= s.flushDocs {
		if err := s.flushLocked(); err != nil {
			return fmt.Errorf("index: flush after ingest: %w", err)
		}
	}
	return nil
}

// DeleteBatch tombstones every live document carrying one of names and
// returns how many were deleted; a name with no live document — unknown,
// already deleted, or listed a second time — contributes zero and is not
// an error. The batch is atomic: every tombstone of the list is staged
// first, the committed segments' share persists through ONE manifest
// commit, and ONE snapshot publishes the lot, so no reader sees part of
// a batch. A commit failure leaves the index (memory and disk) unchanged
// for the whole list, buffered documents included.
func (s *Segmented) DeleteBatch(names []string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("index: segmented index is closed")
	}
	// Stage: the documents to tombstone, per segment and for the buffer.
	// Nothing is visible until the manifest (when needed) commits.
	adds := make([][]DocID, len(s.disk))
	var bufAdd []DocID
	committed := 0
	seen := make(map[string]struct{}, len(names))
	for _, name := range names {
		if _, dup := seen[name]; dup {
			continue
		}
		seen[name] = struct{}{}
		for i, sg := range s.disk {
			adds[i] = sg.byName().live(adds[i], name, sg.del.dead)
		}
		bufAdd = s.bufNames.live(bufAdd, name, s.bufDel.dead)
	}
	for i := range adds {
		committed += len(adds[i])
	}
	if committed == 0 && len(bufAdd) == 0 {
		return 0, nil
	}
	staged := make([]tombstones, len(s.disk))
	for i, sg := range s.disk {
		staged[i] = sg.del.with(sg.ix.docLens, adds[i])
	}
	if committed > 0 {
		m := s.manifestLocked()
		for i := range staged {
			m.Segments[i].Tombs = staged[i].sorted
		}
		if err := s.commitLocked(m); err != nil {
			return 0, err
		}
	}
	s.pub.Lock()
	for i, sg := range s.disk {
		if len(adds[i]) > 0 {
			sg.del = staged[i]
			sg.memo.extend(sg.del.log)
		}
	}
	s.bufDel = s.bufDel.with(s.buf.docLens, bufAdd)
	if s.bufMemo != nil {
		s.bufMemo.extend(s.bufDel.log)
	}
	s.installLocked()
	s.pub.Unlock()
	count := committed + len(bufAdd)
	s.deleted.Add(int64(count))
	return count, nil
}

// manifestLocked renders the current committed state as a manifest.
func (s *Segmented) manifestLocked() *manifest {
	m := &manifest{NextSeq: s.nextSeq}
	for _, sg := range s.disk {
		m.Segments = append(m.Segments, manifestEntry{Seq: sg.seq, Tombs: sg.del.sorted})
	}
	return m
}

// commitLocked commits m as the directory's manifest and counts it.
func (s *Segmented) commitLocked(m *manifest) error {
	if err := writeManifest(s.dir, m); err != nil {
		return err
	}
	s.commits.Add(1)
	return nil
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
// the next flush overwrites or recovery removes. Requires mu; pub is
// taken only around the seal and the final swap, so readers keep
// acquiring (and publishing pending ingests) while the file is written.
func (s *Segmented) flushLocked() error {
	if s.buf.NumDocs() == 0 {
		return nil
	}
	if err := fault.Check(fault.SegmentFlush); err != nil {
		return err
	}
	s.pub.Lock()
	sealed := s.sealBufferLocked()
	s.pub.Unlock()
	seq := s.nextSeq
	path := filepath.Join(s.dir, segFileName(seq))
	if err := WriteFile(path, sealed, FormatV2); err != nil {
		return err
	}
	ix, err := Open(path)
	if err != nil {
		return err
	}
	m := s.manifestLocked()
	m.Segments = append(m.Segments, manifestEntry{Seq: seq, Tombs: s.bufDel.sorted})
	m.NextSeq = seq + 1
	if err := s.commitLocked(m); err != nil {
		ix.Close()
		return err
	}
	// The new segment holds the buffer's documents under the same local
	// DocIDs, so the buffer's delete state and name index are its own.
	s.pub.Lock()
	s.disk = append(s.disk, &segment{seq: seq, path: path, ix: ix,
		del: s.bufDel, memo: newCorrections(s.bufDel.log), names: s.bufNames})
	s.nextSeq = seq + 1
	s.buf = NewBuilder(s.analyzer)
	s.bufDel = tombstones{}
	s.bufNames = nameIndexOf(nil)
	s.bufSealed, s.bufMemo = nil, nil
	s.bufGen++
	s.bufSealedGen = 0
	s.flushes.Add(1)
	s.installLocked()
	s.pub.Unlock()
	return nil
}

// Compact merges every committed segment into one, dropping tombstoned
// documents and preserving ingestion order, then swaps the segment set
// atomically. Old segment files are deleted once the last snapshot
// pinning them is released. The buffer is untouched. A no-op when
// nothing is committed. Like a flush, the merge holds mu but not pub:
// readers keep acquiring — pinning the pre-merge segments — throughout.
// The merged file is streamed by writeMerged, which copies what did not
// change instead of decoding the live index into memory, and the merged
// segment starts with the phrase and window leaves its inputs resolved
// (carryPositionals), so it does not pay their fills again.
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
	if s.mergeGate != nil {
		s.mergeGate()
	}
	// The merge reads the segments the current snapshot pins, under a pin
	// of its own: their mappings stay open until it is done, whoever else
	// releases meanwhile. A fully tombstoned segment is in no snapshot —
	// its mapping may already be closed — and contributes nothing anyway.
	// (cur holds its own reference until the next install, so under pub
	// the pin cannot fail.)
	s.pub.Lock()
	pin := s.cur.Load()
	pin.tryRef()
	s.pub.Unlock()
	defer pin.unref()
	var ins []mergeInput
	for _, v := range pin.views {
		if v.seg != nil {
			ins = append(ins, mergeInput{ix: v.ix, dead: v.dead})
		}
	}
	seq := s.nextSeq
	path := filepath.Join(s.dir, segFileName(seq))
	var counts mergeCounts
	var remaps [][]int32
	if err := writeAtomic(path, func(w io.Writer) (err error) {
		counts, remaps, err = writeMerged(w, s.analyzer, ins)
		return err
	}); err != nil {
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
	if err := s.commitLocked(m); err != nil {
		ix.Close()
		return err
	}
	// Readers keep filling the inputs' memos meanwhile; the merged index
	// is not published yet.
	ix.carryPositionals(ins, remaps)
	sg := &segment{seq: seq, path: path, ix: ix, memo: newCorrections(nil), names: nameIndexOf(ix.docNames)}
	s.pub.Lock()
	old := s.disk
	s.disk = []*segment{sg}
	s.nextSeq = seq + 1
	for _, sg := range old {
		sg.dead.Store(true)
		// Only a fully tombstoned segment can be unreferenced here (the pin
		// holds the rest): its last release ran while the manifest still
		// named it, so its file is this commit's to remove. Should a reader
		// release concurrently, one of the two sees the other's write.
		if sg.refs.Load() == 0 {
			_ = os.Remove(sg.path)
		}
	}
	s.compactions.Add(1)
	s.mergeCopied.Add(counts.copied)
	s.mergeSpliced.Add(counts.spliced)
	s.mergeEncoded.Add(counts.encoded)
	s.installLocked()
	s.pub.Unlock()
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
	s.pub.Lock()
	s.closed = true
	if old := s.cur.Swap(nil); old != nil {
		old.unref()
	}
	s.pub.Unlock()
	return nil
}

// sealBufferLocked returns an immutable Index over the buffer's current
// contents without consuming the Builder, reusing the cached seal when
// no document arrived since it was made. A new seal is a new Index, so it
// starts a new correction memo. Requires pub.
//
// The rows and the per-document columns are the Builder's own, cut at
// their current length and capacity: the Builder only appends to them,
// so a later Add writes past the cut or into a regrown array. The one
// in-place write to a row, the running frequency and position list of
// the document being added, is past every seal taken before that Add
// began. The per-term cf and maxTF columns are different: every Add
// raises an existing term's entries in place, so the seal clones them,
// and those clones and the term map are all it copies.
func (s *Segmented) sealBufferLocked() *Index {
	if s.bufSealed != nil && s.bufSealedGen == s.bufGen {
		return s.bufSealed
	}
	b := s.buf
	ix := &Index{
		analyzer:  b.analyzer,
		terms:     make(map[string]int32, len(b.terms)),
		termText:  slices.Clip(b.termText),
		docNames:  slices.Clip(b.docNames),
		docLens:   slices.Clip(b.docLens),
		totalToks: b.totalToks,
		minDocLen: minDocLenOf(b.docLens),
		postings:  make([]Postings, len(b.termText)),
		cf:        slices.Clone(b.cf),
		maxTF:     slices.Clone(b.maxTF),
	}
	for t, id := range b.terms {
		ix.terms[t] = id
	}
	for id := range b.termText {
		ix.postings[id] = Postings{
			Docs:      slices.Clip(b.docs[id]),
			Freqs:     slices.Clip(b.freqs[id]),
			Positions: slices.Clip(b.pos[id]),
		}
	}
	s.bufSealed, s.bufMemo = ix, newCorrections(s.bufDel.log)
	s.bufSealedGen = s.bufGen
	return ix
}

// installLocked builds the snapshot of the current state and publishes
// it, releasing the previous snapshot's pin. Fully tombstoned segments
// are skipped — they contribute no live documents and no statistics.
// Requires pub (or, at open, sole ownership).
func (s *Segmented) installLocked() {
	s.gen++
	sn := &Snapshot{}
	sn.refs.Store(1)
	view := func(sg *segment, ix *Index, del tombstones, memo *corrections) {
		live := ix.NumDocs() - len(del.sorted)
		sn.views = append(sn.views, segView{seg: sg, ix: ix, tombs: del.sorted, dead: del.dead, memo: memo,
			liveDocs: live, liveToks: ix.TotalTokens() - del.toks})
	}
	for _, sg := range s.disk {
		if sg.ix.NumDocs() == len(sg.del.sorted) {
			continue
		}
		sg.retain()
		view(sg, sg.ix, sg.del, sg.memo)
	}
	if s.buf.NumDocs() > len(s.bufDel.sorted) {
		view(nil, s.sealBufferLocked(), s.bufDel, s.bufMemo)
	}
	sn.prefix = make([]int, len(sn.views)+1)
	for i, v := range sn.views {
		sn.prefix[i+1] = sn.prefix[i] + v.liveDocs
		sn.numDocs += v.liveDocs
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
			s.pub.Lock()
			if s.closed {
				s.pub.Unlock()
				return nil
			}
			if s.stale.Load() {
				s.installLocked()
			}
			sn := s.cur.Load()
			// cur holds its own reference until the next install, so
			// under the lock the pin cannot fail.
			ok := sn != nil && sn.tryRef()
			s.pub.Unlock()
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
	views   []segView
	refs    atomic.Int32
	numDocs int
	// prefix[i] is the global DocID of segment i's first live document;
	// prefix[len(views)] == numDocs.
	prefix []int
}

// segView is one segment's slice of a snapshot. tombs and dead are the
// same deleted documents (ascending list, bitset); memo is the correction
// memo of ix, whose log starts with them.
type segView struct {
	seg      *segment // nil for the buffer's sealed copy
	ix       *Index
	tombs    []DocID
	dead     DocSet
	memo     *corrections
	liveDocs int
	liveToks int64
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

// NumSegments returns the number of segments with live documents.
func (sn *Snapshot) NumSegments() int { return len(sn.views) }

// Segment returns segment i's index. Tombstoned documents are still
// present in it; Tombstones(i) says which.
func (sn *Snapshot) Segment(i int) *Index { return sn.views[i].ix }

// Tombstones returns segment i's tombstoned local DocIDs, ascending.
// Shared with the snapshot; do not modify.
func (sn *Snapshot) Tombstones(i int) []DocID { return sn.views[i].tombs }

// Dead returns segment i's tombstoned documents as a set — the same
// documents as Tombstones(i), in the form an evaluator tests per
// candidate. Nil when the segment has none.
func (sn *Snapshot) Dead(i int) DocSet { return sn.views[i].dead }

// SegmentLiveTokens returns the token count of segment i's live
// documents.
func (sn *Snapshot) SegmentLiveTokens(i int) int64 { return sn.views[i].liveToks }

// TermCorrection returns what segment i's tombstones take off term id's
// collection frequency in that segment, memoised on the
// segment (see corrections).
func (sn *Snapshot) TermCorrection(i int, id int32) Correction {
	v := &sn.views[i]
	if len(v.tombs) == 0 {
		return Correction{}
	}
	return v.memo.lookup(v.ix, v.tombs, leafKey{term: id}, nil)
}

// PositionalCorrection is TermCorrection for a phrase or window leaf
// resolved against segment i's index.
func (sn *Snapshot) PositionalCorrection(i int, p *Positional) Correction {
	v := &sn.views[i]
	if len(v.tombs) == 0 || len(p.Docs) == 0 {
		return Correction{}
	}
	return v.memo.lookup(v.ix, v.tombs, leafKey{term: -1, positional: p.key}, p)
}

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
			if !v.dead.Has(DocID(id)) {
				out = append(out, v.ix.DocName(DocID(id)))
			}
		}
	}
	return out
}
