package analysis

// stopwords is the classic SMART-derived English stopword list trimmed to
// the terms that actually occur in short caption-style documents. Indri's
// default stopper is a superset; for query-likelihood retrieval over short
// documents the effect is equivalent.
var stopwords = map[string]struct{}{}

func init() {
	for _, w := range stopwordList {
		stopwords[w] = struct{}{}
	}
}

var stopwordList = []string{
	"a", "about", "above", "after", "again", "against", "all", "am", "an",
	"and", "any", "are", "aren", "as", "at", "be", "because", "been",
	"before", "being", "below", "between", "both", "but", "by", "can",
	"cannot", "could", "couldn", "did", "didn", "do", "does", "doesn",
	"doing", "don", "down", "during", "each", "few", "for", "from",
	"further", "had", "hadn", "has", "hasn", "have", "haven", "having",
	"he", "her", "here", "hers", "herself", "him", "himself", "his", "how",
	"i", "if", "in", "into", "is", "isn", "it", "its", "itself", "just",
	"me", "more", "most", "mustn", "my", "myself", "no", "nor", "not",
	"now", "of", "off", "on", "once", "only", "or", "other", "ought",
	"our", "ours", "ourselves", "out", "over", "own", "same", "shan",
	"she", "should", "shouldn", "so", "some", "such", "than", "that",
	"the", "their", "theirs", "them", "themselves", "then", "there",
	"these", "they", "this", "those", "through", "to", "too", "under",
	"until", "up", "very", "was", "wasn", "we", "were", "weren", "what",
	"when", "where", "which", "while", "who", "whom", "why", "will",
	"with", "won", "would", "wouldn", "you", "your", "yours", "yourself",
	"yourselves", "s", "t", "d", "ll", "m", "o", "re", "ve", "y",
}

// IsStopword reports whether term (already lowercased) is on the stopword
// list.
func IsStopword(term string) bool {
	_, ok := stopwords[term]
	return ok
}
