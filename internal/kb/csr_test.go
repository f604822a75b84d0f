package kb

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refBuildCSR is the sort-based construction buildCSR replaced, kept as
// the reference the linear build and transpose are held to: one sort of
// the whole edge list by (from, to), then a deduplicating scan.
func refBuildCSR(numNodes int, edges []edge) csr {
	edges = slices.Clone(edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	offsets := make([]int32, numNodes+1)
	targets := make([]NodeID, 0, len(edges))
	prev := edge{from: -1, to: -1}
	for _, e := range edges {
		if e == prev {
			continue
		}
		prev = e
		targets = append(targets, e.to)
		offsets[e.from+1]++
	}
	for i := 1; i <= numNodes; i++ {
		offsets[i] += offsets[i-1]
	}
	return csr{offsets: offsets, targets: targets}
}

// reverseEdges returns the transposed edge list.
func reverseEdges(edges []edge) []edge {
	out := make([]edge, len(edges))
	for i, e := range edges {
		out[i] = edge{from: e.to, to: e.from}
	}
	return out
}

// randomEdges draws m edges over n nodes from a narrow range, so there
// are parallel edges, empty rows, and nodes past the last source.
func randomEdges(rng *rand.Rand, n int) []edge {
	if n == 0 {
		return nil
	}
	span := 1 + rng.Intn(n)
	edges := make([]edge, rng.Intn(4*n))
	for i := range edges {
		edges[i] = edge{from: NodeID(rng.Intn(span)), to: NodeID(rng.Intn(n))}
	}
	return edges
}

// TestBuildCSRMatchesSortReference: on random edge lists the linear
// build equals the sort-based one, and its transpose equals the
// sort-based build of the reversed list.
func TestBuildCSRMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := range 500 {
		n := rng.Intn(40)
		edges := randomEdges(rng, n)
		in := slices.Clone(edges)
		got := buildCSR(n, edges)
		if !slices.Equal(edges, in) {
			t.Fatalf("trial %d: buildCSR modified its input", trial)
		}
		if want := refBuildCSR(n, edges); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, %v): built %+v, want %+v", trial, n, edges, got, want)
		}
		if got, want := got.transpose(n), refBuildCSR(n, reverseEdges(edges)); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, %v): transposed %+v, want %+v", trial, n, edges, got, want)
		}
	}
}

// TestBuildMatchesSortReference: all six relations of a Builder's
// graph — random links, memberships and containments, repeats included
// — equal the sort-based builds of its edge lists and of their reverses.
func TestBuildMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := range 100 {
		nArt, nCat := 1+rng.Intn(30), 1+rng.Intn(10)
		b := NewBuilder(nArt + nCat)
		for i := range nArt + nCat {
			// Interleave the kinds so neither relation's nodes are a prefix.
			title := string(rune('a'+i%26)) + string(rune('0'+i/26))
			if rng.Intn(nArt+nCat) < nCat {
				b.AddCategory("Category:" + title)
			} else {
				b.AddArticle(title)
			}
		}
		n := len(b.kinds)
		for range 4 * n {
			// Wrong kinds and self edges are refused; the rest land,
			// repeats included.
			from, to := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			switch rng.Intn(3) {
			case 0:
				b.AddLink(from, to)
			case 1:
				b.AddMembership(from, to)
			default:
				b.AddContainment(from, to)
			}
		}
		links, membership, contain := slices.Clone(b.links), slices.Clone(b.membership), slices.Clone(b.contain)
		g := b.Build()
		for _, rel := range []struct {
			name      string
			got       csr
			edges     []edge
			transpose bool
		}{
			{"linkOut", g.linkOut, links, false},
			{"linkIn", g.linkIn, links, true},
			{"memberOf", g.memberOf, membership, false},
			{"members", g.members, membership, true},
			{"parents", g.parents, contain, false},
			{"children", g.children, contain, true},
		} {
			edges := rel.edges
			if rel.transpose {
				edges = reverseEdges(edges)
			}
			if want := refBuildCSR(n, edges); !reflect.DeepEqual(rel.got, want) {
				t.Fatalf("trial %d: %s = %+v, want %+v", trial, rel.name, rel.got, want)
			}
		}
	}
}
