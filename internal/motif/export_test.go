package motif

import (
	"sort"

	"repro/internal/kb"
)

// scanExpand is Expand as it was before the rows: one candidate scan
// per query node, excluding the query nodes as it goes, and a fold of
// the per-node matches. It is the reference the rows are held to
// (rows_test.go).
func (m *Matcher) scanExpand(queryNodes []kb.NodeID, set Set) []Match {
	var acc []Match
	for _, q := range queryNodes {
		if q < 0 || m.g.Kind(q) != kb.KindArticle {
			continue
		}
		m.scanFrom(q, set, queryNodes, &acc)
	}
	if len(acc) == 0 {
		return []Match{}
	}
	sort.Slice(acc, func(i, j int) bool { return acc[i].Article < acc[j].Article })
	out := acc[:1]
	for _, e := range acc[1:] {
		if last := &out[len(out)-1]; last.Article == e.Article {
			last.Motifs += e.Motifs
		} else {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Motifs != out[j].Motifs {
			return out[i].Motifs > out[j].Motifs
		}
		return out[i].Article < out[j].Article
	})
	return out
}

// scanFrom accumulates motif instance counts for one query node.
func (m *Matcher) scanFrom(q kb.NodeID, set Set, queryNodes []kb.NodeID, acc *[]Match) {
	qCats := m.g.Categories(q)
	for _, e := range m.g.OutLinks(q) {
		if containsNode(queryNodes, e) {
			continue
		}
		if m.RequireReciprocal && !m.g.HasLink(e, q) {
			continue
		}
		if !m.UseCategories {
			*acc = append(*acc, Match{Article: e, Motifs: 1})
			continue
		}
		eCats := m.g.Categories(e)
		n := 0
		if set.Has(Triangular) {
			n += triangularInstances(qCats, eCats)
		}
		if set.Has(Square) {
			n += m.squareInstances(qCats, eCats)
		}
		if n > 0 {
			*acc = append(*acc, Match{Article: e, Motifs: n})
		}
	}
}
