package sqe

import (
	"errors"

	"repro/internal/analysis"
	"repro/internal/index"
	"repro/internal/search"
)

// LiveIndex is a live, incrementally updatable document index organised
// as LSM-style immutable segments: streamed documents accumulate in an
// in-memory buffer that flushes on size to immutable on-disk FormatV2
// segments, deletes tombstone documents, and compaction merges the
// committed segments. Queries pin an immutable snapshot, so searches
// racing mutations always see a consistent document set — and score it
// bit-identically to a monolithic index built from the same surviving
// documents (the segment differential and index-while-chaos gates
// enforce this). See index.Segmented for the full contract.
type LiveIndex = index.Segmented

// LiveIndexStats summarises a live index (segment counts, live
// documents, tombstones, lifetime mutation counters).
type LiveIndexStats = index.SegmentedStats

// OpenLiveIndex opens (or creates) a live index rooted at dir, using
// the standard analyzer (the same pipeline NewIndexBuilder and queries
// use). flushDocs is the buffer size in documents that triggers an
// automatic flush to disk; <= 0 keeps index.DefaultFlushDocs. Reopening
// a directory recovers the committed segments and tombstones from the
// manifest; unflushed buffer contents are volatile by design — call
// (*LiveIndex).Flush (or Engine.Flush) before shutdown to make the
// buffer durable.
func OpenLiveIndex(dir string, flushDocs int) (*LiveIndex, error) {
	return index.OpenSegmented(dir, analysis.Standard(), index.WithFlushDocs(flushDocs))
}

// NewLiveEngine builds an Engine whose retrieval runs against a live
// segmented index instead of an immutable one. The full expansion
// pipeline (motifs, the expansion cache, SQE_C) is unchanged;
// retrieval routes through a snapshot-pinning segmented searcher that
// is bit-identical to a monolithic engine over the same surviving
// documents. Documents enter and leave through Engine.Ingest and
// Engine.DeleteBatch (or the serving layer's /v1/ingest).
//
// Requests with PRF fail on a live engine — feedback would otherwise
// silently come from an empty placeholder index rather than the live
// document set. WithShards and WithDistributedSearcher are superseded:
// the live index's segments are the parallelism unit, evaluated with
// the same fan-out pool.
func NewLiveEngine(g *Graph, live *LiveIndex, opts ...Option) *Engine {
	// The placeholder satisfies the Engine plumbing that expects an
	// immutable index (analyzer lookup, option application); every
	// retrieval routes through the segmented searcher appended last, so
	// the placeholder is never scored against.
	placeholder := index.NewBuilder(live.Analyzer()).Build()
	opts = append(append([]Option(nil), opts...),
		WithDistributedSearcher(search.NewSegmentedSearcher(live)))
	e := NewEngine(g, placeholder, opts...)
	e.live = live
	return e
}

// errNoLiveIndex rejects live-index operations on engines built over an
// immutable index.
var errNoLiveIndex = errors.New("sqe: engine has no live index (built with NewEngine, not NewLiveEngine)")

// Live returns the engine's live index, or nil for an immutable engine.
func (e *Engine) Live() *LiveIndex { return e.live }

// Ingest streams one document into the live index; it is searchable
// before Ingest returns. See (*LiveIndex).Ingest for flush semantics.
func (e *Engine) Ingest(name, text string) error {
	if e.live == nil {
		return errNoLiveIndex
	}
	return e.live.Ingest(name, text)
}

// Delete tombstones every live document named name and returns how many
// were deleted (0 for an unknown name; not an error).
func (e *Engine) Delete(name string) (int, error) {
	return e.DeleteBatch([]string{name})
}

// DeleteBatch tombstones every live document carrying one of names, all
// or nothing, under one manifest commit and one published snapshot; it
// returns how many documents were deleted (unknown and repeated names
// count zero). See (*LiveIndex).DeleteBatch.
func (e *Engine) DeleteBatch(names []string) (int, error) {
	if e.live == nil {
		return 0, errNoLiveIndex
	}
	return e.live.DeleteBatch(names)
}

// Flush forces the live index's buffer into a committed on-disk
// segment (a no-op on an empty buffer).
func (e *Engine) Flush() error {
	if e.live == nil {
		return errNoLiveIndex
	}
	return e.live.Flush()
}

// CompactSegments merges the live index's committed segments into one,
// dropping tombstoned documents.
func (e *Engine) CompactSegments() error {
	if e.live == nil {
		return errNoLiveIndex
	}
	return e.live.Compact()
}

// LiveStats reports the live index's state; ok is false for an
// immutable engine.
func (e *Engine) LiveStats() (stats LiveIndexStats, ok bool) {
	if e.live == nil {
		return LiveIndexStats{}, false
	}
	return e.live.Stats(), true
}
