package index

// TermFreq is one entry of a document's forward vector.
type TermFreq struct {
	Term int32
	Freq int32
}

// DocVector returns the term-frequency vector of doc (term IDs with
// frequencies, unordered). The forward index is built on first use and
// cached; it is what pseudo-relevance feedback needs to estimate P(w|D)
// over the feedback documents. The build walks every term once with one
// plain-mode cursor (a v2 file's positions are validated and dropped),
// so no term row is kept beside it.
func (ix *Index) DocVector(doc DocID) []TermFreq {
	ix.fwdOnce.Do(ix.buildForward)
	return ix.forward[doc]
}

func (ix *Index) buildForward() {
	ix.forward = make([][]TermFreq, len(ix.docNames))
	var c TermCursor
	for id := range int32(len(ix.termText)) {
		c.resetTerm(ix, id, false)
		for d := c.Doc(); d != DocEnd; d = c.Next() {
			// Freq is 0 only for a block that failed to decode, which
			// exhausts the cursor and is recorded on Err.
			if f := c.Freq(); f > 0 {
				ix.forward[d] = append(ix.forward[d], TermFreq{Term: id, Freq: f})
			}
		}
	}
	c.Release()
}
