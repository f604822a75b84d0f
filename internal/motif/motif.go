// Package motif implements the paper's two structural motifs over the KB
// graph (Section 2.2) and the cycle analysis behind them (Section 2.1).
//
// Both motifs start from a query node q (always an article) and certify
// an expansion article e:
//
//   - Triangular motif (cycle of length 3): q and e are doubly linked
//     (q→e and e→q hyperlinks) and e belongs to at least the same exact
//     categories as q (categories(q) ⊆ categories(e)). One motif
//     instance exists per shared category, so an article that closes
//     several triangles is counted several times.
//
//   - Square motif (cycle of length 4): q and e are doubly linked and
//     some category of q is inside some category of e, or vice versa
//     (direct parent/child containment). One instance per qualifying
//     category pair.
//
// The per-article instance count |m_a| is the paper's expansion-feature
// weight.
package motif

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/kb"
)

// Kind selects a motif.
type Kind uint8

const (
	// Triangular is the length-3 motif.
	Triangular Kind = 1 << iota
	// Square is the length-4 motif.
	Square
)

// Set is a bitmask of motif kinds.
type Set uint8

// Common motif configurations, named after the paper's runs.
const (
	SetT  = Set(Triangular)          // SQE_T
	SetS  = Set(Square)              // SQE_S
	SetTS = Set(Triangular | Square) // SQE_T&S
)

// Has reports whether the set contains kind.
func (s Set) Has(k Kind) bool { return s&Set(k) != 0 }

// String names the set the way the paper does.
func (s Set) String() string {
	switch s {
	case SetT:
		return "T"
	case SetS:
		return "S"
	case SetTS:
		return "T&S"
	default:
		return "none"
	}
}

// Match is an expansion article found by motif search together with the
// number of motif instances it appears in.
type Match struct {
	Article kb.NodeID
	// Motifs is |m_a|: total motif instances over all query nodes and
	// enabled motif kinds.
	Motifs int
}

// Matcher finds motif matches in a graph. The zero value is not usable;
// construct with NewMatcher.
type Matcher struct {
	g *kb.Graph
	// RequireReciprocal controls the double-link condition. The paper's
	// motifs require it; setting this to false is the ablation of
	// DESIGN.md §13 ("single-link"), which shows why the condition
	// matters.
	RequireReciprocal bool
	// UseCategories controls the category conditions; disabling them is
	// the "no-category" ablation (any doubly-linked article matches,
	// with one instance).
	UseCategories bool

	// rows[b] is the row table under ConditionBits() == b, allocated
	// the first time a query runs under b: rows[b][q] is article q's
	// row, built the first time a query names q (see Expand).
	rows [4]atomic.Pointer[[]atomic.Pointer[[]rowEntry]]
}

// rowEntry is one candidate of an article's row: a doubly-linked
// neighbour (any out-neighbour under the single-link ablation) with its
// triangular and square instance counts. Under the no-category ablation
// both counts are zero and the entry weighs 1 under every set.
type rowEntry struct {
	article kb.NodeID
	tri, sq int32
}

// noEntries is the shared row of an article with no candidates, so a
// built empty row is told apart from an unbuilt one without allocating.
var noEntries []rowEntry

// NewMatcher returns a Matcher with the paper's conditions enabled.
func NewMatcher(g *kb.Graph) *Matcher {
	return &Matcher{g: g, RequireReciprocal: true, UseCategories: true}
}

// ConditionBits packs the matcher's ablation switches into a bitmask.
// Both switches change Expand's output, so any cache or store key over
// expansion results must include these bits — see
// core.(*Expander).ExpansionKey, whose completeness invariant rests on
// this method staying in sync with the exported fields above. The row
// tables are keyed by it too.
func (m *Matcher) ConditionBits() uint8 {
	var b uint8
	if m.RequireReciprocal {
		b |= requireReciprocalBit
	}
	if m.UseCategories {
		b |= useCategoriesBit
	}
	return b
}

// The ConditionBits of each ablation switch.
const (
	requireReciprocalBit = 1
	useCategoriesBit     = 2
)

// Expand runs motif search from the given query nodes and returns all
// matches sorted by descending |m_a| (ties: ascending article ID).
// Query nodes themselves are never reported as expansion nodes.
//
// Expand is a fold of per-article rows (ROADMAP item 2): a query node
// reaches the other query nodes only through their exclusion, so the
// result is the concatenation of the query nodes' rows, minus entries
// that are query nodes, each entry weighed by the motif set, folded by
// foldMatches. A row holds both counts, so one row serves every set; it
// is built by the first query that names its article, and goroutines
// racing on a cold row all build the same one, so whichever store lands
// last is as good as the first. Rows are bounded by the KB: at most one
// per article per condition setting.
func (m *Matcher) Expand(queryNodes []kb.NodeID, set Set) []Match {
	bits := m.ConditionBits()
	table := m.table(bits)
	n := 0
	for _, q := range queryNodes {
		// Skip invalid IDs (kb.Invalid from a failed entity-link lookup)
		// instead of indexing out of range deep inside the CSR rows.
		if q < 0 || m.g.Kind(q) != kb.KindArticle {
			continue
		}
		n += len(m.row(table, bits, q))
	}
	acc := make([]Match, 0, n)
	tri, sq := int32(0), int32(0)
	if set.Has(Triangular) {
		tri = 1
	}
	if set.Has(Square) {
		sq = 1
	}
	for _, q := range queryNodes {
		if q < 0 || m.g.Kind(q) != kb.KindArticle {
			continue
		}
		for _, e := range *table[q].Load() {
			if containsNode(queryNodes, e.article) {
				continue
			}
			w := 1
			if bits&useCategoriesBit != 0 {
				w = int(tri*e.tri + sq*e.sq)
			}
			if w > 0 {
				acc = append(acc, Match{Article: e.article, Motifs: w})
			}
		}
	}
	return foldMatches(acc)
}

// table returns the row table of condition setting bits, allocating it
// on the setting's first use.
func (m *Matcher) table(bits uint8) []atomic.Pointer[[]rowEntry] {
	slot := &m.rows[bits]
	if t := slot.Load(); t != nil {
		return *t
	}
	t := make([]atomic.Pointer[[]rowEntry], m.g.NumNodes())
	if !slot.CompareAndSwap(nil, &t) {
		return *slot.Load()
	}
	return t
}

// row returns article q's row in table, the table of condition setting
// bits, building it on first use.
func (m *Matcher) row(table []atomic.Pointer[[]rowEntry], bits uint8, q kb.NodeID) []rowEntry {
	slot := &table[q]
	if r := slot.Load(); r != nil {
		return *r
	}
	r := m.scanRow(q, bits)
	if len(r) == 0 {
		slot.Store(&noEntries)
	} else {
		slot.Store(&r)
	}
	return r
}

// foldMatches merges per-(query node, article) entries into one entry
// per article, in place, and applies the output order (descending
// |m_a|, ties ascending article ID). Always returns a non-nil slice —
// callers treat "no matches" as an empty expansion, not a missing one.
func foldMatches(acc []Match) []Match {
	if len(acc) == 0 {
		return []Match{}
	}
	slices.SortFunc(acc, func(a, b Match) int { return cmp.Compare(a.Article, b.Article) })
	out := acc[:1]
	for _, e := range acc[1:] {
		if last := &out[len(out)-1]; last.Article == e.Article {
			last.Motifs += e.Motifs
		} else {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b Match) int {
		if a.Motifs != b.Motifs {
			return cmp.Compare(b.Motifs, a.Motifs)
		}
		return cmp.Compare(a.Article, b.Article)
	})
	return out
}

func containsNode(nodes []kb.NodeID, n kb.NodeID) bool {
	// Linear scan: queryNodes is the query's entity list (1–5 IDs),
	// below the break-even of any map or binary search.
	for _, q := range nodes {
		if q == n {
			return true
		}
	}
	return false
}

// scanRow builds article q's row under condition setting bits. Candidates are exactly the
// doubly-linked neighbours of q (or all out-neighbours under the
// single-link ablation), so the scan cost is O(outdeg(q) · log d) —
// this is what keeps expansion sub-second (paper Table 4). Entries that
// no motif set can weigh above zero are left out.
func (m *Matcher) scanRow(q kb.NodeID, bits uint8) []rowEntry {
	var row []rowEntry
	qCats := m.g.Categories(q)
	for _, e := range m.g.OutLinks(q) {
		if bits&requireReciprocalBit != 0 && !m.g.HasLink(e, q) {
			continue
		}
		if bits&useCategoriesBit == 0 {
			row = append(row, rowEntry{article: e})
			continue
		}
		eCats := m.g.Categories(e)
		tri := triangularInstances(qCats, eCats)
		sq := m.squareInstances(qCats, eCats)
		if tri > 0 || sq > 0 {
			row = append(row, rowEntry{article: e, tri: int32(tri), sq: int32(sq)})
		}
	}
	return row
}

// triangularInstances returns the number of triangular motif instances
// between category sets: 0 unless qCats ⊆ eCats (and qCats non-empty),
// otherwise one instance per shared category. Both inputs are sorted.
func triangularInstances(qCats, eCats []kb.NodeID) int {
	if len(qCats) == 0 || len(qCats) > len(eCats) {
		return 0
	}
	i, j := 0, 0
	for i < len(qCats) && j < len(eCats) {
		switch {
		case qCats[i] == eCats[j]:
			i++
			j++
		case qCats[i] < eCats[j]:
			return 0 // qCats[i] missing from eCats: not a superset
		default:
			j++
		}
	}
	if i < len(qCats) {
		return 0
	}
	return len(qCats)
}

// squareInstances counts category pairs (cq, ce) with cq inside ce or ce
// inside cq (direct containment either way).
//
// Instead of testing every (cq, ce) pair — O(|qCats|·|eCats|) binary
// searches — it intersects each category's sorted parent list against
// the other side's sorted category list: the pairs with ce above cq are
// exactly eCats ∩ parents(cq), and symmetrically for cq above ce. Each
// intersection is a linear merge, so the cost is driven by list lengths,
// not their product.
func (m *Matcher) squareInstances(qCats, eCats []kb.NodeID) int {
	n := 0
	for _, cq := range qCats {
		n += countCommon(eCats, m.g.ParentCategories(cq), cq)
	}
	for _, ce := range eCats {
		parents := m.g.ParentCategories(ce)
		i, j := 0, 0
		for i < len(qCats) && j < len(parents) {
			switch {
			case qCats[i] == parents[j]:
				// A pair contained both ways still counts once (the
				// pairwise test was an OR), so skip pairs the first
				// pass already saw.
				if cq := qCats[i]; cq != ce && !m.g.IsParentCategory(ce, cq) {
					n++
				}
				i++
				j++
			case qCats[i] < parents[j]:
				i++
			default:
				j++
			}
		}
	}
	return n
}

// countCommon returns |a ∩ b| excluding skip; both inputs sorted
// ascending.
func countCommon(a, b []kb.NodeID, skip kb.NodeID) int {
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			if a[i] != skip {
				n++
			}
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}
