package index

import (
	"encoding/binary"
	"sync"
)

// Positional leaves — exact phrases (#1) and unordered windows (#uwN) —
// are resolved once per index, not once per query. An Index is
// immutable, so the documents, frequencies and bound summaries of
// "these terms under this operator" are a property of the index; the
// memo below keeps them, keyed by the constituents' term IDs, for as
// long as the index itself lives. DESIGN.md "Positional leaves are
// resolved once per index" has the full argument.

// Positional is one resolved positional leaf: the documents matching the
// operator, the match count in each, and the summaries an evaluator
// needs to score and prune it like a stored term. It is shared by every
// query that asks for the same leaf and must not be modified. The rows
// live on the Go heap and never alias a v2 file's mmap, so they stay
// valid after Close exactly as materialised term rows do.
type Positional struct {
	// Docs are the matching documents, ascending; Freqs[i] is the number
	// of matches in Docs[i] (phrase occurrences, or minimal windows).
	Docs  []DocID
	Freqs []int32
	// CF is the collection frequency, the sum of Freqs.
	CF int64
	// Bounds is what PostingsBounds derives from (Docs, Freqs), computed
	// once at fill.
	Bounds TermBounds

	once sync.Once
	key  string
	// cost is the entry's charge against the memo's budget; zero until
	// admitted. Guarded by the memo's lock.
	cost int
}

// noPositional is the leaf no document can match: an out-of-vocabulary
// constituent, or a window narrower than its arity.
var noPositional Positional

// PositionalScratch is the reusable working state of positional-leaf
// resolution: the memo key, the constituents' rows and the intersection
// cursors. A caller that resolves many leaves (the search package's
// pooled evaluator scratch) keeps one and a memo hit then allocates
// nothing; the zero value is ready to use. Not safe for concurrent use.
type PositionalScratch struct {
	key     []byte
	ids     []int32
	lists   []*Postings
	cursors []int
	rows    []int
	docs    []DocID
	freqs   []int32
	// Minimal-window sweep state (window.go).
	ptr []int
	pos [][]int32
}

// positionMatcher finds one operator's matches inside a document every
// constituent occurs in; rows[i] is that document's row in sc.lists[i].
// It returns the match count and, when collect is set, the matches'
// start positions in a freshly allocated slice.
type positionMatcher func(sc *PositionalScratch, rows []int, width int32, collect bool) (int32, []int32)

// termIDs resolves terms into sc.ids; false when one is out of
// vocabulary (no document can match).
func (sc *PositionalScratch) termIDs(ix *Index, terms []string) bool {
	sc.ids = sc.ids[:0]
	for _, t := range terms {
		id, ok := ix.terms[t]
		if !ok {
			return false
		}
		sc.ids = append(sc.ids, id)
	}
	return true
}

// loadLists fetches the rows of sc.ids into sc.lists (decoding them on a
// v2-backed index); false when one is empty.
func (sc *PositionalScratch) loadLists(ix *Index) bool {
	sc.lists = sc.lists[:0]
	for _, id := range sc.ids {
		l := ix.termPostings(id)
		if len(l.Docs) == 0 {
			return false
		}
		sc.lists = append(sc.lists, l)
	}
	return true
}

// intersect is the document-intersection loop behind every positional
// operator: it walks the documents of the rarest constituent, gallops
// the other lists to each, and hands every document they all contain to
// match. Matching documents and their match counts accumulate in
// sc.docs / sc.freqs; positions, when non-nil, also receives each
// document's start positions. The references into the index are dropped
// before returning, so a pooled scratch never pins one.
func (sc *PositionalScratch) intersect(width int32, match positionMatcher, positions *[][]int32) {
	lists := sc.lists
	sc.docs, sc.freqs = sc.docs[:0], sc.freqs[:0]
	sc.cursors, sc.rows = zeroed(sc.cursors, len(lists)), zeroed(sc.rows, len(lists))
	cursors, rows := sc.cursors, sc.rows
	rarest := 0
	for i, l := range lists {
		if len(l.Docs) < len(lists[rarest].Docs) {
			rarest = i
		}
	}
docs:
	for _, doc := range lists[rarest].Docs {
		for i, l := range lists {
			j := advance(l.Docs, cursors[i], doc)
			cursors[i] = j
			if j == len(l.Docs) {
				break docs // a constituent is exhausted: nothing later can match
			}
			if l.Docs[j] != doc {
				continue docs
			}
			rows[i] = j
		}
		n, pos := match(sc, rows, width, positions != nil)
		if n == 0 {
			continue
		}
		sc.docs = append(sc.docs, doc)
		sc.freqs = append(sc.freqs, n)
		if positions != nil {
			*positions = append(*positions, pos)
		}
	}
	clear(sc.lists)
	clear(sc.pos)
}

// zeroed returns s with length n and every element 0, reusing its
// backing when it fits.
func zeroed(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// materialize is the caller-owned, position-carrying form of a
// positional leaf — the contract of the exported PhrasePostings and
// UnorderedWindowPostings, and the reference the memo is tested
// against. Every slice of the result is fresh.
func (ix *Index) materialize(terms []string, width int32, match positionMatcher) Postings {
	var sc PositionalScratch
	if len(terms) == 0 || !sc.termIDs(ix, terms) || !sc.loadLists(ix) {
		return Postings{}
	}
	var out Postings
	sc.intersect(width, match, &out.Positions)
	out.Docs, out.Freqs = sc.docs, sc.freqs
	return out
}

// PhraseLeaf resolves the exact ordered phrase of PhrasePostings through
// the index's memo. hit is false when this call ran the intersection.
func (ix *Index) PhraseLeaf(terms []string, sc *PositionalScratch) (p *Positional, hit bool) {
	return ix.positional(terms, 0, chainMatches, sc)
}

// WindowLeaf resolves the unordered window of UnorderedWindowPostings
// through the index's memo. hit is false when this call ran the
// intersection.
func (ix *Index) WindowLeaf(terms []string, window int, sc *PositionalScratch) (p *Positional, hit bool) {
	if window < len(terms) {
		return &noPositional, true
	}
	return ix.positional(terms, window, windowMatches, sc)
}

// positional looks the leaf up under (width, term IDs) — width 0 is the
// ordered phrase; a window is at least its arity, so never 0 — and fills
// it on a miss. Concurrent callers of one cold key share a single
// intersection through the entry's once; other keys are not held up,
// because the memo's lock is never held across a fill.
func (ix *Index) positional(terms []string, width int, match positionMatcher, sc *PositionalScratch) (*Positional, bool) {
	if len(terms) == 0 || !sc.termIDs(ix, terms) {
		return &noPositional, true
	}
	sc.key = binary.AppendUvarint(sc.key[:0], uint64(width))
	for _, id := range sc.ids {
		sc.key = binary.LittleEndian.AppendUint32(sc.key, uint32(id))
	}
	m := &ix.positionals
	e, created := m.lookup(sc.key)
	e.once.Do(func() {
		if m.filled != nil {
			m.filled(e.key)
		}
		e.fill(ix, sc, int32(width), match)
	})
	if created {
		m.admit(e)
	}
	return e, !created
}

// fill runs the intersection in counting mode — no position lists are
// built — and copies the result out of the scratch at its exact size,
// so a miss allocates a fixed number of slices however many documents
// match.
func (e *Positional) fill(ix *Index, sc *PositionalScratch, width int32, match positionMatcher) {
	if !sc.loadLists(ix) {
		return
	}
	sc.intersect(width, match, nil)
	if len(sc.docs) == 0 {
		return
	}
	e.Docs = append(make([]DocID, 0, len(sc.docs)), sc.docs...)
	e.Freqs = append(make([]int32, 0, len(sc.freqs)), sc.freqs...)
	p := Postings{Docs: e.Docs, Freqs: e.Freqs}
	e.CF = p.CollectionFreq()
	e.Bounds = boundsOf(&p, ix.docLens)
}

const (
	// positionalBudget bounds one index's memo, in cached postings
	// (8 bytes of rows each, so about 8 MB): several times the whole
	// title set of the benchmark KB.
	positionalBudget = 1 << 20
	// positionalEntryCost is the fixed charge of an entry on top of its
	// rows — key, struct, map slot — so empty results are not free.
	positionalEntryCost = 32
)

// positionalMemo is the per-index table of resolved positional leaves.
// The zero value is an empty memo (shard and sealed-buffer indexes are
// struct literals). It is two generations of one map: hits read under
// the shared lock and touch nothing; an insert that would take the
// young generation past half the budget drops the old generation and
// ages the young one, and a hit in the old generation moves the entry
// back to the young one. Both generations stay within half the budget,
// so the total never exceeds it, and an entry unused for a whole
// generation becomes garbage.
type positionalMemo struct {
	mu               sync.RWMutex
	cur, old         map[string]*Positional
	curCost, oldCost int

	// Test hooks: budget overrides positionalBudget when non-zero;
	// filled observes every intersection by key.
	budget int
	filled func(key string)
}

func (m *positionalMemo) budgetOf() int {
	if m.budget > 0 {
		return m.budget
	}
	return positionalBudget
}

// lookup returns key's entry, inserting an unfilled, uncharged one when
// there is none; created tells the caller it owes the fill's admit.
func (m *positionalMemo) lookup(key []byte) (e *Positional, created bool) {
	m.mu.RLock()
	e = m.cur[string(key)]
	m.mu.RUnlock()
	if e != nil {
		return e, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e = m.cur[string(key)]; e != nil {
		return e, false
	}
	if e = m.old[string(key)]; e != nil {
		delete(m.old, e.key)
		m.oldCost -= e.cost
		m.insertLocked(e)
		return e, false
	}
	e = &Positional{key: string(key)}
	m.insertLocked(e)
	return e, true
}

// admit charges a filled entry to the budget. The entry sat in the memo
// uncharged while it was computed (so concurrent askers found it); it
// is taken out and re-inserted at its real cost, or left out when it is
// larger than an eighth of the budget or was aged out meanwhile.
func (m *positionalMemo) admit(e *Positional) {
	cost := len(e.Docs) + positionalEntryCost
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.cur[e.key] == e:
		delete(m.cur, e.key)
	case m.old[e.key] == e:
		delete(m.old, e.key)
	default:
		return
	}
	if cost > m.budgetOf()/8 {
		return
	}
	e.cost = cost
	m.insertLocked(e)
}

// insertLocked puts e in the young generation, ageing it first when e
// would take it past half the budget.
func (m *positionalMemo) insertLocked(e *Positional) {
	if m.cur == nil || m.curCost+e.cost > m.budgetOf()/2 {
		m.old, m.oldCost = m.cur, m.curCost
		m.cur, m.curCost = make(map[string]*Positional), 0
	}
	m.cur[e.key] = e
	m.curCost += e.cost
}
