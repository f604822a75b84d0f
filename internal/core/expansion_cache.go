package core

import (
	"container/list"
	"encoding/binary"
	"slices"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/kb"
	"repro/internal/motif"
)

// ExpansionCache memoises BuildQueryGraph results across requests. The
// companion paper ("Massive Query Expansion by Exploiting Graph
// Knowledge Bases") frames motif expansion as a precomputable,
// high-throughput operation; in a serving deployment the same entity
// sets recur constantly (head queries, retries, the three SQE_C runs of
// repeated queries), so the expensive motif search is worth caching.
//
// The cache is a sharded LRU: the key hashes to one of the shards, each
// shard holds its own mutex, recency list and map, so concurrent
// requests rarely contend on the same lock. Entries are keyed by the
// *sorted* query-node list plus the motif set and the complete expander
// configuration (see ExpansionKey) — permutations of the same entity
// set share one cached expansion, while toggling any knob that shapes
// the output (including the matcher-level reciprocity and category
// ablations) changes the key and misses. A hit returns the stored
// QueryGraph verbatim (shared slices, bit-identical to the miss that
// populated it); callers must treat cached graphs as immutable, which
// every consumer of BuildQueryGraph already does.
type ExpansionCache struct {
	shards [cacheShards]cacheShard
}

// cacheShards is the fixed shard count; a power of two so the hash maps
// to a shard with a mask. 16 shards keep lock contention negligible up
// to hundreds of concurrent requests.
const cacheShards = 16

type cacheShard struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	entries   map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type cacheEntry struct {
	key string
	qg  QueryGraph
}

// CacheStats are the cache's monotonic counters plus the current size.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int64
}

// NewExpansionCache returns a cache bounded to exactly capacity entries
// in total: each shard gets ⌊capacity/16⌋ and the remainder is spread
// one entry each over the first capacity%16 shards. (Rounding every
// shard up, as this used to do, let a cache bounded to N hold up to
// 16·⌈N/16⌉ entries — 16x the bound for N<16.) Shards whose share is
// zero cache nothing; keys hashing there rebuild their expansion every
// time, which only costs work, never correctness.
func NewExpansionCache(capacity int) *ExpansionCache {
	if capacity < 0 {
		capacity = 0
	}
	base, rem := capacity/cacheShards, capacity%cacheShards
	c := &ExpansionCache{}
	for i := range c.shards {
		per := base
		if i < rem {
			per++
		}
		c.shards[i] = cacheShard{
			capacity: per,
			ll:       list.New(),
			entries:  make(map[string]*list.Element),
		}
	}
	return c
}

// shard picks the shard for a key with an FNV-1a hash.
func (c *ExpansionCache) shard(key string) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h&(cacheShards-1)]
}

// Get returns the cached graph for key, promoting it to most recently
// used. An injected cache fault degrades the lookup to a miss — a
// failing cache backend slows requests down (they rebuild the
// expansion) but never fails them.
func (c *ExpansionCache) Get(key string) (QueryGraph, bool) {
	if fault.Check(fault.ExpansionCache) != nil {
		return QueryGraph{}, false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		s.misses++
		return QueryGraph{}, false
	}
	s.hits++
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).qg, true
}

// Put stores qg under key, evicting the shard's least recently used
// entry when the shard is full. Re-putting an existing key refreshes its
// recency without duplicating it. An injected cache fault skips the
// store (the write-side twin of Get's degrade-to-miss).
func (c *ExpansionCache) Put(key string, qg QueryGraph) {
	if fault.Check(fault.ExpansionCache) != nil {
		return
	}
	s := c.shard(key)
	if s.capacity == 0 {
		// This shard's share of the total bound is zero (capacity < 16);
		// storing anything would exceed the cache's advertised size.
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*cacheEntry).qg = qg
		s.ll.MoveToFront(el)
		return
	}
	if s.ll.Len() >= s.capacity {
		oldest := s.ll.Back()
		if oldest != nil {
			s.ll.Remove(oldest)
			delete(s.entries, oldest.Value.(*cacheEntry).key)
			s.evictions++
		}
	}
	s.entries[key] = s.ll.PushFront(&cacheEntry{key: key, qg: qg})
}

// Stats sums the per-shard counters. The snapshot is not atomic across
// shards, which is fine for monitoring.
func (c *ExpansionCache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Entries += int64(s.ll.Len())
		s.mu.Unlock()
	}
	return st
}

// ExpansionKey encodes (sorted query nodes, motif set, complete
// expander configuration) into a compact string key. The completeness
// invariant: every knob that can change what this Expander produces for
// queryNodes is in the key, so an entry can never be served under a
// configuration other than the one that built it, even when the
// expander is reconfigured while the cache holds entries (DESIGN.md
// §7). Concretely the key covers:
//
//   - the motif set and the sorted query-node list. Duplicate nodes are
//     deliberately kept: BuildQueryGraph([a,a,b]) differs from
//     BuildQueryGraph([a,b]) — the repeated node's motif instances are
//     counted once per occurrence and its title enters the entity part
//     twice — so [a,a,b] and [a,b] must not share an entry (see
//     TestExpansionKeyKeepsDuplicateNodes).
//   - the expander knobs MaxFeatures and UniformFeatureWeights, which
//     shape the feature list itself.
//   - the matcher ablation switches (RequireReciprocal, UseCategories),
//     which change Expand's output. These used to be missing — toggling
//     an ablation against a live cache silently returned stale graphs.
//   - TitleWindowSlack. It shapes BuildQuery, not the stored
//     QueryGraph, but keying it means one key string fully identifies
//     the expansion configuration an entry was built under.
func (e *Expander) ExpansionKey(queryNodes []kb.NodeID, set motif.Set) string {
	sorted := append([]kb.NodeID(nil), queryNodes...)
	slices.Sort(sorted)
	buf := make([]byte, 0, 2+20+4*len(sorted))
	buf = append(buf, byte(set))
	flags := byte(0)
	if e.UniformFeatureWeights {
		flags |= 1
	}
	flags |= e.matcher.ConditionBits() << 1
	buf = append(buf, flags)
	buf = binary.AppendVarint(buf, int64(e.MaxFeatures))
	buf = binary.AppendVarint(buf, int64(e.TitleWindowSlack))
	for _, n := range sorted {
		buf = binary.AppendVarint(buf, int64(n))
	}
	return string(buf)
}

// canonicalGraph returns qg in the cache's canonical storage form:
// query nodes sorted ascending, features exactly as BuildQueryGraph
// emitted them. The feature order is already canonical by construction
// — motif.foldMatches sums instance counts across query nodes and sorts
// by (|m_a| desc, article asc), so the slice is a pure function of the
// node *multiset*, independent of the caller's permutation. It must be
// stored verbatim, not re-sorted: under UniformFeatureWeights every
// weight collapses to 1 and a weight-major re-sort would scramble the
// |m_a| order, perturbing the downstream floating-point summation order
// and breaking hit/miss byte-identity at the ULP level.
func canonicalGraph(qg QueryGraph) QueryGraph {
	if !slices.IsSorted(qg.QueryNodes) {
		sorted := append([]kb.NodeID(nil), qg.QueryNodes...)
		slices.Sort(sorted)
		qg.QueryNodes = sorted
	}
	return qg
}

// BuildQueryGraphCached is BuildQueryGraph through cache c, the one
// expansion entry point of the serving path: a hit returns the stored
// graph (treat it as immutable), a miss builds and stores it, and a nil
// c builds without a memo. A non-nil ps gets the motif stage's time and
// the feature count; hits account their (tiny) lookup time to the motif
// stage, so stage percentages stay truthful under caching. A nil ps
// leaves the call untimed.
//
// Entries are stored in canonical form (canonicalGraph) and a hit
// rebinds the caller's own query-node order, so permutations of one
// entity set share a single entry *and* every request — hit or cold
// miss — sees byte-identical output: the features are canonical and
// order-independent of the node permutation, while the query-node
// order (which fixes the entity part's child order and therefore the
// floating-point summation order downstream) is always the caller's.
func (e *Expander) BuildQueryGraphCached(queryNodes []kb.NodeID, set motif.Set, c *ExpansionCache, ps *PipelineStats) (qg QueryGraph) {
	if ps != nil {
		defer func(start time.Time) {
			ps.Stages.MotifSearch += time.Since(start)
			ps.Features += len(qg.Features)
		}(time.Now())
	}
	if c == nil {
		return e.BuildQueryGraph(queryNodes, set)
	}
	key := e.ExpansionKey(queryNodes, set)
	if hit, ok := c.Get(key); ok {
		return QueryGraph{
			QueryNodes: append([]kb.NodeID(nil), queryNodes...),
			Features:   hit.Features,
		}
	}
	qg = e.BuildQueryGraph(queryNodes, set)
	c.Put(key, canonicalGraph(qg))
	return qg
}
