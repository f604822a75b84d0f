package index

import (
	"encoding/binary"
	"sync"
)

// Positional leaves — exact phrases (#1) and unordered windows (#uwN) —
// are resolved once per index, not once per query. An Index is
// immutable, so the documents, frequencies and MaxTF of
// "these terms under this operator" are a property of the index; the
// memo below keeps them, keyed by the constituents' term IDs, for as
// long as the index itself lives. DESIGN.md §8.3 has the full argument.

// Positional is one resolved positional leaf: the documents matching the
// operator, the match count in each, and the statistics an evaluator
// needs to score and prune it like a stored term. It is shared by every
// query that asks for the same leaf and must not be modified. The rows
// are exact-size Go-heap copies, never views of a v2 file's mmap or of a
// cursor's decode window, so they stay valid after Close. On a v2-backed
// index they are all a fill leaves behind: the constituents are streamed
// through block cursors, and their rows are never materialised.
type Positional struct {
	// Docs are the matching documents, ascending; Freqs[i] is the number
	// of matches in Docs[i] (phrase occurrences, or minimal windows).
	Docs  []DocID
	Freqs []int32
	// CF is the collection frequency, the sum of Freqs.
	CF int64
	// MaxTF is the largest of Freqs, computed once at fill.
	MaxTF int32

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
// resolution: the memo key, one cursor per constituent and the
// intersection's output. A caller that resolves many leaves (the search
// package's pooled evaluator scratch) keeps one: a memo hit then
// allocates nothing, and a miss reuses the cursors' decode windows. The
// zero value is ready to use. Not safe for concurrent use.
type PositionalScratch struct {
	key   []byte
	ids   []int32
	curs  []TermCursor
	docs  []DocID
	freqs []int32
	// pos[i] is constituent i's position list in the current document.
	pos [][]int32
	// Minimal-window sweep state (window.go).
	ptr []int
}

// positionMatcher finds one operator's matches inside a document every
// constituent occurs in, given each constituent's position list there.
// It returns the match count and, when collect is set, the matches'
// start positions in a freshly allocated slice.
type positionMatcher func(sc *PositionalScratch, pos [][]int32, width int32, collect bool) (int32, []int32)

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

// intersect is the document-intersection loop behind every positional
// operator, over one cursor per constituent of sc.ids: block cursors in
// positions mode on a v2-backed index, windows over the rows otherwise.
// It walks the documents of the rarest constituent, advances the others
// to each — a block cursor skips the blocks its directory rules out
// without decoding them — and hands every document they all contain to
// match. Matching documents and their match counts accumulate in
// sc.docs / sc.freqs; positions, when non-nil, also receives each
// document's start positions. It returns false when a block failed its
// checks or the index was closed (the error is on ix.Err): the
// documents gathered so far are then a fragment the caller must drop.
// The cursors release their references into the index before it
// returns, so a pooled scratch never pins one.
func (sc *PositionalScratch) intersect(ix *Index, width int32, match positionMatcher, positions *[][]int32) bool {
	n := len(sc.ids)
	sc.docs, sc.freqs = sc.docs[:0], sc.freqs[:0]
	if cap(sc.curs) < n {
		// Carry the old cursors over: their decode windows are the value.
		sc.curs = append(sc.curs[:cap(sc.curs)], make([]TermCursor, n-cap(sc.curs))...)
	}
	curs := sc.curs[:n]
	sc.pos = zeroed(sc.pos, n)
	rarest := 0
	for i, id := range sc.ids {
		curs[i].resetTerm(ix, id, true)
		if curs[i].Len() < curs[rarest].Len() {
			rarest = i
		}
	}
	lead := &curs[rarest]
docs:
	for doc := lead.Doc(); doc != DocEnd; doc = lead.Next() {
		for i := range curs {
			if got := curs[i].Advance(doc); got != doc {
				if got == DocEnd {
					break docs // a constituent is exhausted: nothing later can match
				}
				continue docs
			}
			if sc.pos[i] = curs[i].Positions(); sc.pos[i] == nil {
				break docs // the block failed to decode; a posting has ≥ 1 position
			}
		}
		m, pos := match(sc, sc.pos, width, positions != nil)
		if m == 0 {
			continue
		}
		sc.docs = append(sc.docs, doc)
		sc.freqs = append(sc.freqs, m)
		if positions != nil {
			*positions = append(*positions, pos)
		}
	}
	ok := true
	for i := range curs {
		ok = ok && !curs[i].failed
		curs[i].Release()
	}
	clear(sc.pos)
	return ok
}

// zeroed returns s with length n and every element zero, reusing its
// backing when it fits.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// positionalPostings is the caller-owned, position-carrying form of a
// positional leaf — the contract of the exported PhrasePostings and
// UnorderedWindowPostings. Every slice of the result is fresh.
func (ix *Index) positionalPostings(terms []string, width int32, match positionMatcher) Postings {
	var sc PositionalScratch
	if len(terms) == 0 || !sc.termIDs(ix, terms) {
		return Postings{}
	}
	var out Postings
	if !sc.intersect(ix, width, match, &out.Positions) {
		return Postings{}
	}
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
	return ix.resolve(width, match, sc)
}

// resolve is positional over the term IDs already in sc.ids.
func (ix *Index) resolve(width int, match positionMatcher, sc *PositionalScratch) (*Positional, bool) {
	sc.key = appendPositionalKey(sc.key[:0], width, sc.ids)
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

// appendPositionalKey appends the memo key of the leaf over ids under
// width to dst.
func appendPositionalKey(dst []byte, width int, ids []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(width))
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	return dst
}

// fill runs the intersection in counting mode — no position lists are
// built — and copies the result out of the scratch at its exact size,
// so a miss allocates a fixed number of slices however many documents
// match. An intersection a failed block cut short leaves the entry
// empty, as a failed row decode always has; a fragment is never cached.
func (e *Positional) fill(ix *Index, sc *PositionalScratch, width int32, match positionMatcher) {
	if !sc.intersect(ix, width, match, nil) || len(sc.docs) == 0 {
		return
	}
	e.Docs = append(make([]DocID, 0, len(sc.docs)), sc.docs...)
	e.Freqs = append(make([]int32, 0, len(sc.freqs)), sc.freqs...)
	e.CF = (&Postings{Freqs: e.Freqs}).CollectionFreq()
	e.MaxTF = maxTF(e.Freqs)
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

// carryPositionals seeds dst's memo from the memos of the segments it
// was merged from: ins, in merge order, where remaps[i] maps ins[i]'s
// DocIDs to dst's, -1 where tombstoned. A merge keeps every surviving
// document's tokens and positions verbatim and in input order, so a
// leaf's entry on dst is the concatenation of its entries on the inputs,
// renumbered and without the tombstoned documents — the rows a fill on
// dst computes, whose CF and Bounds are derived here as a fill derives
// them. The keys carried are the ones the largest input has admitted; a
// fill still under way there is uncharged, so it is neither copied nor
// waited for. The other inputs resolve each key through their own memo,
// filling it where it is missing. A key with a constituent dst does not
// know is the empty leaf on dst and is skipped. Nothing is carried when
// an input has recorded an error: a fill that failed on it cached an
// empty entry in place of its matches. Entries are admitted under dst's
// budget rules. dst must not be shared yet.
func (dst *Index) carryPositionals(ins []mergeInput, remaps [][]int32) {
	if len(ins) == 0 {
		return // every committed document was deleted
	}
	big := 0
	for i, in := range ins {
		if in.ix.NumDocs() > ins[big].ix.NumDocs() {
			big = i
		}
	}
	var held []*Positional
	m := &ins[big].ix.positionals
	m.mu.RLock()
	// The old generation first, so the young one is inserted last on dst
	// and stays young there.
	for _, gen := range [2]map[string]*Positional{m.old, m.cur} {
		for _, e := range gen {
			if e.cost > 0 {
				held = append(held, e)
			}
		}
	}
	m.mu.RUnlock()

	dm := &dst.positionals
	var sc PositionalScratch
	var key []byte
	var texts []string
	parts := make([]*Positional, len(ins))
	carried := make([]*Positional, 0, len(held))
	for _, e := range held {
		raw := []byte(e.key)
		width, n := binary.Uvarint(raw)
		match := positionMatcher(windowMatches)
		if width == 0 {
			match = chainMatches
		}
		texts = texts[:0]
		for ; n < len(raw); n += 4 {
			texts = append(texts, ins[big].ix.termText[binary.LittleEndian.Uint32(raw[n:])])
		}
		if !sc.termIDs(dst, texts) {
			continue
		}
		key = appendPositionalKey(key[:0], int(width), sc.ids)
		rows := 0
		for i, in := range ins {
			switch {
			case i == big:
				parts[i] = e
			case sc.termIDs(in.ix, texts):
				parts[i], _ = in.ix.resolve(int(width), match, &sc)
			default:
				parts[i] = &noPositional
			}
			for _, d := range parts[i].Docs {
				if remaps[i][d] >= 0 {
					rows++
				}
			}
		}
		cost := rows + positionalEntryCost
		if cost > dm.budgetOf()/8 {
			continue // a fill would not keep it either
		}
		c := &Positional{key: string(key), cost: cost}
		c.once.Do(func() {})
		if rows > 0 {
			c.Docs, c.Freqs = make([]DocID, 0, rows), make([]int32, 0, rows)
			for i, p := range parts {
				for j, d := range p.Docs {
					if nd := remaps[i][d]; nd >= 0 {
						c.Docs = append(c.Docs, DocID(nd))
						c.Freqs = append(c.Freqs, p.Freqs[j])
						c.CF += int64(p.Freqs[j])
					}
				}
			}
			c.MaxTF = maxTF(c.Freqs)
		}
		carried = append(carried, c)
	}
	for _, in := range ins {
		if in.ix.Err() != nil {
			return
		}
	}
	dm.mu.Lock()
	defer dm.mu.Unlock()
	for _, c := range carried {
		dm.insertLocked(c)
	}
}
