package index

// materialised counts ix's decoded postings rows: the rows termPostings
// keeps for the life of a v2-backed index. Serving paths must leave it 0.
func materialised(ix *Index) int {
	k := 0
	for id := range ix.postings {
		if ix.postings[id].Docs != nil {
			k++
		}
	}
	return k
}

// Materialised exports materialised to the external tests (package
// index_test), which drive an index through the packages above it.
var Materialised = materialised
