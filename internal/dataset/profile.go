// Package dataset generates the three benchmark instances of the paper's
// Section 3 — Image CLEF, CHiC 2012 and CHiC 2013 — as synthetic
// counterparts coupled to a wikigen.World.
//
// The real collections (237,434 image captions; 1,107,176 cultural-
// heritage records; 50 TREC-style topics each with qrels) are not
// available, so we generate corpora from the same topic model that built
// the KB:
//
//   - each query targets one topic and is phrased in the topic's *alias*
//     vocabulary — words that rarely occur in documents (the paper's
//     vocabulary mismatch) and that are also planted into non-relevant
//     documents (topic inexperience / ambiguity);
//   - relevant documents are captions about the topic: they mention
//     same-topic article titles as consecutive n-grams (the way captions
//     name entities), carry loose topic vocabulary, and share a noise
//     background with everything else;
//   - distractor documents are captions about non-query topics plus pure
//     noise, including documents about *related* (same-domain) topics
//     that mention query-topic articles — the hard negatives that keep
//     entity-title matching from being a perfect signal.
//
// The two CHiC instances share one collection, as in the paper, and keep
// its quirks: fewer relevant documents per query (31.32 / 50.6 vs 68.8),
// 14 CHiC 2012 queries and 1 CHiC 2013 query with no relevant documents
// at all, and a collection ~4.7× the size of Image CLEF's.
package dataset

// QuerySetProfile describes one query set (50 topics in the paper).
type QuerySetProfile struct {
	Name     string
	IDPrefix string
	// NumQueries is the number of topics/queries.
	NumQueries int
	// MeanRelevant and StdRelevant shape the per-query relevant-document
	// counts (normal, clamped at MinRelevant).
	MeanRelevant float64
	StdRelevant  float64
	MinRelevant  int
	// ZeroRelevantQueries forces this many queries to have no relevant
	// documents at all (they still count in the precision average).
	ZeroRelevantQueries int
	// TitleMentionLow/High bound the per-query probability that a
	// relevant document mentions at least one same-topic article title.
	// Lower values make the query intrinsically harder (part of its
	// relevant set is unreachable through expansion features).
	TitleMentionLow, TitleMentionHigh float64
	// AliasDocLow/High bound the per-query probability that a relevant
	// document contains a given query alias term (vocabulary-mismatch
	// severity).
	AliasDocLow, AliasDocHigh float64
}

// CollectionProfile describes a document collection; one collection can
// host several query sets (CHiC 2012/2013 share one).
type CollectionProfile struct {
	Name string
	Seed int64
	// NumDocs is the total collection size including relevant documents.
	NumDocs int
	// AliasNoiseFactor scales how many distractor documents get a query's
	// alias terms planted: ≈ factor · (alias coverage of the relevant
	// set). Higher values depress the QL_Q baseline.
	AliasNoiseFactor float64
	// NearMissFactor scales the number of near-miss documents per query:
	// documents about the query's topic that do not satisfy its intent
	// and are judged non-relevant. They are what keeps expansion
	// features from being an oracle.
	NearMissFactor float64
	// CrossTopicMentionProb is the probability that a topical distractor
	// document also mentions an article from another topic of the same
	// domain — the source of entity-title false positives.
	CrossTopicMentionProb float64
	// MentionZipf is the exponent of the popularity distribution over a
	// topic's articles when documents pick which articles to mention
	// (article 0, the entity, is the most popular).
	MentionZipf float64
	// CrossMentionZipf is the popularity exponent used when a document
	// about another topic name-drops this topic. Cross-references almost
	// always hit the topic's head entity ("a tram is not a cable car"),
	// which is precisely what makes the entity title an ambiguous signal
	// while tail-article titles stay precise — the asymmetry SQE
	// exploits.
	CrossMentionZipf float64
	// QuerySets lists the query sets judged against this collection.
	QuerySets []QuerySetProfile
}

// Scale shrinks the default profiles for fast tests.
type Scale int

const (
	// ScaleDefault is the benchmark scale (see DESIGN.md §13).
	ScaleDefault Scale = iota
	// ScaleSmall is the unit-test scale.
	ScaleSmall
)

// ImageCLEFProfile returns the Image CLEF-like collection profile: one
// query set, every query has at least one relevant document, mean 68.8
// relevant per query.
func ImageCLEFProfile(s Scale) CollectionProfile {
	p := CollectionProfile{
		Name:                  "Image CLEF",
		Seed:                  101,
		NumDocs:               18000,
		AliasNoiseFactor:      3.6,
		NearMissFactor:        1.6,
		CrossTopicMentionProb: 0.55,
		MentionZipf:           0.55,
		CrossMentionZipf:      2.2,
		QuerySets: []QuerySetProfile{{
			Name:             "Image CLEF",
			IDPrefix:         "IC",
			NumQueries:       50,
			MeanRelevant:     68.8,
			StdRelevant:      25,
			MinRelevant:      1,
			TitleMentionLow:  0.35,
			TitleMentionHigh: 0.85,
			AliasDocLow:      0.30,
			AliasDocHigh:     0.55,
		}},
	}
	if s == ScaleSmall {
		p.NumDocs = 2200
		qs := &p.QuerySets[0]
		qs.NumQueries = 12
		qs.MeanRelevant = 30
		qs.StdRelevant = 10
	}
	return p
}

// CHiCProfile returns the shared CHiC collection with its two query
// sets (2012, 2013). The collection is ~4.7× Image CLEF's, relevant sets
// are smaller and several queries have none — the paper's explanation
// for CHiC's lower precision.
func CHiCProfile(s Scale) CollectionProfile {
	p := CollectionProfile{
		Name:                  "CHiC",
		Seed:                  202,
		NumDocs:               84000,
		AliasNoiseFactor:      4.0,
		NearMissFactor:        1.6,
		CrossTopicMentionProb: 0.55,
		MentionZipf:           0.55,
		CrossMentionZipf:      2.2,
		QuerySets: []QuerySetProfile{
			{
				Name:                "CHiC 2012",
				IDPrefix:            "C12",
				NumQueries:          50,
				MeanRelevant:        31.32 * 50 / 36, // mean over non-zero queries so the judged mean lands at 31.32
				StdRelevant:         20,
				MinRelevant:         1,
				ZeroRelevantQueries: 14,
				TitleMentionLow:     0.25,
				TitleMentionHigh:    0.75,
				AliasDocLow:         0.25,
				AliasDocHigh:        0.45,
			},
			{
				Name:                "CHiC 2013",
				IDPrefix:            "C13",
				NumQueries:          50,
				MeanRelevant:        50.6 * 50 / 49,
				StdRelevant:         22,
				MinRelevant:         1,
				ZeroRelevantQueries: 1,
				TitleMentionLow:     0.30,
				TitleMentionHigh:    0.80,
				AliasDocLow:         0.28,
				AliasDocHigh:        0.50,
			},
		},
	}
	if s == ScaleSmall {
		p.NumDocs = 4500
		for i := range p.QuerySets {
			qs := &p.QuerySets[i]
			qs.NumQueries = 12
			qs.MeanRelevant = 18
			qs.StdRelevant = 8
			if qs.ZeroRelevantQueries > 3 {
				qs.ZeroRelevantQueries = 3
			}
		}
	}
	return p
}
