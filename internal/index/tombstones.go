package index

import (
	"slices"
	"sync"
)

// DocSet is an immutable set of local DocIDs, one bit per document. The
// nil set is empty, so an index with no deleted documents needs none.
type DocSet []uint64

// Has reports whether d is in the set.
func (s DocSet) Has(d DocID) bool {
	w := uint(d) >> 6
	return w < uint(len(s)) && s[w]>>(uint(d)&63)&1 != 0
}

// tombstones is the delete-side state of one committed segment, or of
// the buffer: which of its documents are deleted, in the three forms
// the readers want. The value is immutable once a snapshot can see it —
// with builds the successor instead of writing in place — so snapshots
// alias the slices safely. The zero value is "nothing deleted".
type tombstones struct {
	// sorted lists the deleted local DocIDs ascending (what the manifest
	// stores and Snapshot.Tombstones returns); dead is the same set as a
	// bitset, the form the evaluators test per candidate.
	sorted []DocID
	dead   DocSet
	// log lists the same documents in the order they were deleted. It
	// only ever grows, so every snapshot's tombstones are a prefix of
	// every later snapshot's — what lets a memoised correction advance
	// by the new suffix alone (see corrections). Memory-only: after a
	// reopen the log order is the manifest's ascending order.
	log []DocID
	// toks is the token count of the deleted documents.
	toks int64
}

// with returns the state after also deleting add — documents of the
// segment whose length column is docLens, none of them deleted yet —
// leaving t as it was. add is sorted in place.
// Appending to the log may write into spare capacity behind t.log; no
// reader holds more than a prefix it was published with, so the bytes
// past it are nobody's.
func (t tombstones) with(docLens []int32, add []DocID) tombstones {
	if len(add) == 0 {
		return t
	}
	slices.Sort(add)
	next := tombstones{
		sorted: make([]DocID, 0, len(t.sorted)+len(add)),
		dead:   make(DocSet, (len(docLens)+63)/64),
		log:    append(t.log, add...),
		toks:   t.toks,
	}
	copy(next.dead, t.dead)
	i := 0
	for _, d := range add {
		for i < len(t.sorted) && t.sorted[i] < d {
			next.sorted = append(next.sorted, t.sorted[i])
			i++
		}
		next.sorted = append(next.sorted, d)
		next.dead[d>>6] |= 1 << (uint(d) & 63)
		next.toks += int64(docLens[d])
	}
	next.sorted = append(next.sorted, t.sorted[i:]...)
	return next
}

// Correction is what a snapshot's tombstones take off one query leaf's
// statistics in one segment: the occurrences (CF) the leaf has among the
// deleted documents. Probes counts the tombstones
// that had to be looked up in the leaf's postings to answer — zero when
// the memo was current.
type Correction struct {
	CF     int64
	Probes int
}

// corrections memoises Corrections for one immutable Index — a committed
// segment's, or one seal of the buffer — and dies with it (the lifetime
// rule of positionalMemo: a field of the owner, never a registry). An
// entry remembers which prefix of the owner's tombstone log it covers,
// so a lookup is a map hit while nothing was deleted since, and costs
// one probe per *new* tombstone otherwise, however many the segment
// already carries.
type corrections struct {
	mu sync.Mutex
	// log is the owner's tombstone log as of its last committed delete;
	// the mutator extends it before publishing the snapshot that sees
	// the longer prefix.
	log  []DocID
	done map[leafKey]correction
}

// leafKey names a query leaf within one index: a term by ID, a resolved
// phrase or window by its positional-memo key (not by pointer — an entry
// the positional memo evicted and resolved again is the same leaf, and
// a key does not pin the evicted rows).
type leafKey struct {
	term       int32
	positional string
}

// correction is a leaf's totals over log[:covered].
type correction struct {
	covered int
	cf      int64
}

func newCorrections(log []DocID) *corrections {
	return &corrections{log: log, done: make(map[leafKey]correction)}
}

// extend publishes a longer log. Called by the mutator, before it
// installs the snapshot whose view has len(log) tombstones.
func (m *corrections) extend(log []DocID) {
	m.mu.Lock()
	m.log = log
	m.mu.Unlock()
}

// lookup answers for a view holding the first len(sorted) tombstones of
// the log (sorted is that prefix, ascending). pos carries the rows of a
// positional leaf; a term leaf (pos == nil) is probed through ix. A view
// ahead of the entry advances it and stores the result; a view behind it
// — a reader still pinned on an older snapshot — subtracts the suffix it
// must not see and stores nothing. The lock is not held while probing:
// two readers may probe the same suffix, and both compute the same sums.
func (m *corrections) lookup(ix *Index, sorted []DocID, key leafKey, pos *Positional) Correction {
	n := len(sorted)
	m.mu.Lock()
	e := m.done[key]
	log := m.log
	m.mu.Unlock()
	if e.covered == n {
		return Correction{CF: e.cf}
	}
	lo, hi := e.covered, n
	if lo > hi {
		lo, hi = hi, lo
	}
	ts := sorted
	if lo > 0 || hi > n {
		ts = slices.Clone(log[lo:hi])
		slices.Sort(ts)
	}
	var cf int64
	if pos != nil {
		cf = probeRow(pos.Docs, pos.Freqs, ts)
	} else {
		cf = ix.probeTerm(key.term, ts)
	}
	if e.covered > n {
		return Correction{CF: e.cf - cf, Probes: len(ts)}
	}
	e = correction{covered: n, cf: e.cf + cf}
	m.mu.Lock()
	if m.done[key].covered < n {
		m.done[key] = e
	}
	m.mu.Unlock()
	return Correction{CF: e.cf, Probes: len(ts)}
}

// probeRow sums the frequencies of a materialised postings row over the
// documents of ts (ascending), walking the shorter of the two against
// the other.
func probeRow(docs []DocID, freqs []int32, ts []DocID) (cf int64) {
	if len(docs) <= len(ts) {
		j := 0
		for i, d := range docs {
			j = advance(ts, j, d)
			if j == len(ts) {
				break
			}
			if ts[j] == d {
				cf += int64(freqs[i])
			}
		}
		return cf
	}
	i := 0
	for _, t := range ts {
		i = advance(docs, i, t)
		if i == len(docs) {
			break
		}
		if docs[i] == t {
			cf += int64(freqs[i])
		}
	}
	return cf
}

// probeCursors pools the block cursors probeTerm streams with, so a
// probe reuses a decode window instead of allocating one.
var probeCursors = sync.Pool{New: func() any { return new(TermCursor) }}

// probeTerm sums term id's frequencies over the documents of ts
// (ascending). On a v2-backed index it is one forward pass of a block
// cursor: Advance consults the block directory, so only blocks whose
// range holds a tombstone are decoded and the row is never materialised.
func (ix *Index) probeTerm(id int32, ts []DocID) (cf int64) {
	if ix.lazy == nil {
		p := &ix.postings[id]
		return probeRow(p.Docs, p.Freqs, ts)
	}
	c := probeCursors.Get().(*TermCursor)
	c.ResetStream(ix, id)
	for _, t := range ts {
		d := c.Advance(t)
		if d == DocEnd {
			break
		}
		if d == t {
			cf += int64(c.Freq())
		}
	}
	c.Release()
	probeCursors.Put(c)
	return cf
}
