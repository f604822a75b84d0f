package kb

import "slices"

// csr is a compressed-sparse-row adjacency structure over NodeIDs. Row i
// occupies targets[offsets[i]:offsets[i+1]] and every row is sorted
// ascending with duplicates removed, enabling O(log d) membership tests.
type csr struct {
	offsets []int32
	targets []NodeID
}

// row returns the adjacency list of node id. For nodes outside the
// structure's range — negative IDs (e.g. kb.Invalid leaking out of a
// failed entity-link lookup) or nodes beyond a relation that only
// covers articles — it returns nil instead of indexing out of bounds.
func (c *csr) row(id NodeID) []NodeID {
	if id < 0 || int(id)+1 >= len(c.offsets) {
		return nil
	}
	return c.targets[c.offsets[id]:c.offsets[id+1]]
}

// numEdges returns the total number of edges stored.
func (c *csr) numEdges() int { return len(c.targets) }

// edge is a directed pair used during construction.
type edge struct{ from, to NodeID }

// buildCSR constructs a csr over numNodes rows from an unsorted edge
// list, deduplicating parallel edges, in time linear in the edges plus
// the rows' own sorts: a counting pass buckets the targets by source,
// then each (short) row is sorted, deduplicated and packed down over the
// duplicates removed before it. edges is not modified.
func buildCSR(numNodes int, edges []edge) csr {
	offsets := make([]int32, numNodes+1)
	for _, e := range edges {
		offsets[e.from+1]++
	}
	for i := 1; i <= numNodes; i++ {
		offsets[i] += offsets[i-1]
	}
	targets := make([]NodeID, len(edges))
	// offsets[from] is row from's write cursor: after the scatter it
	// stands at the row's end.
	for _, e := range edges {
		targets[offsets[e.from]] = e.to
		offsets[e.from]++
	}
	var w, lo int32
	for i := range numNodes {
		hi := offsets[i]
		row := targets[lo:hi]
		slices.Sort(row)
		offsets[i] = w
		prev := Invalid
		for _, t := range row {
			if t != prev {
				targets[w], prev = t, t
				w++
			}
		}
		lo = hi
	}
	offsets[numNodes] = w
	return csr{offsets: offsets, targets: targets[:w]}
}

// transpose returns the reverse relation of c over numNodes rows.
// Sources are visited in ascending order, so every reverse row comes out
// sorted, and since c's rows hold no duplicate neither does any reverse
// row: no sort is needed.
func (c *csr) transpose(numNodes int) csr {
	offsets := make([]int32, numNodes+1)
	for _, t := range c.targets {
		offsets[t+1]++
	}
	for i := 1; i <= numNodes; i++ {
		offsets[i] += offsets[i-1]
	}
	targets := make([]NodeID, len(c.targets))
	for from := range NodeID(len(c.offsets) - 1) {
		for _, t := range c.row(from) {
			targets[offsets[t]] = from
			offsets[t]++
		}
	}
	// Each cursor stands at its row's end, the next row's start.
	copy(offsets[1:], offsets[:numNodes])
	offsets[0] = 0
	return csr{offsets: offsets, targets: targets}
}
