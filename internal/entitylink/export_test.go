package entitylink

import "repro/internal/kb"

// AddTitleTwoPass is AddTitle as it was before it analysed each title
// once: AddSurface's analysis for the surface form, then a second
// analysis for the unigram index. It is the reference the one-pass
// AddTitle is held to.
func (d *Dictionary) AddTitleTwoPass(title string, article kb.NodeID, commonness float64) {
	d.AddSurface(title, article, commonness)
	for _, t := range d.analyzer.AnalyzeTerms(title) {
		d.unigrams[t] = append(d.unigrams[t], Candidate{Article: article, Commonness: commonness})
	}
}

// DictionaryOf returns the dictionary l links with.
func DictionaryOf(l *Linker) *Dictionary { return l.dict }
