package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/kb"
	"repro/internal/wikigen"
)

// Query is one benchmark topic: the user's text, the topic it is about,
// and the manually selected query entities (the paper's (M) runs; the
// (A) runs link entities from Text instead).
type Query struct {
	ID   string
	Text string
	// Topic is the world topic index the query targets.
	Topic int
	// Entities are the manually selected query nodes.
	Entities []kb.NodeID
	// TitleMentionProb and AliasDocProb are the difficulty draws used to
	// generate this query's relevant documents; exposed for analysis.
	TitleMentionProb float64
	AliasDocProb     float64
	// DecoyTerms is the coherent vocabulary of the query's false-positive
	// documents: planted distractors share it, the way real distractors
	// cluster on one wrong sense of the query ("cable car" toys). It is
	// what makes pseudo-relevance feedback lock onto the wrong topic when
	// the initial ranking is poor.
	DecoyTerms []string
	// NumRelevant is the number of generated relevant documents.
	NumRelevant int
}

// Instance is one evaluable benchmark: a query set judged against an
// indexed collection. Instances generated from the same
// CollectionProfile share their Index.
type Instance struct {
	Name    string
	World   *wikigen.World
	Index   *index.Index
	Queries []Query
	Qrels   eval.Qrels
	// GroundTruth maps query ID to the optimal expansion features (same
	// role as the published ground truth [10] the paper analyses):
	// same-topic articles weighted by how many of the query's relevant
	// documents mention them.
	GroundTruth map[string][]core.Feature
}

// DocSink observes every generated document; used to export the corpus
// alongside indexing it.
type DocSink func(name, text string)

// Build generates every instance of a collection profile against world.
// The same (world, profile) pair always generates the same instances.
func Build(world *wikigen.World, p CollectionProfile) ([]*Instance, error) {
	return BuildWithSink(world, p, nil)
}

// BuildWithSink is Build with a document observer: sink (when non-nil)
// receives every document exactly as it is indexed, in index order.
func BuildWithSink(world *wikigen.World, p CollectionProfile, sink DocSink) ([]*Instance, error) {
	if len(p.QuerySets) == 0 {
		return nil, fmt.Errorf("dataset: profile %q has no query sets", p.Name)
	}
	g := &generator{
		world: world,
		p:     p,
		rng:   rand.New(rand.NewSource(p.Seed*1_000_003 + world.Config.Seed)),
		ixb:   index.NewBuilder(analysis.Standard()),
		sink:  sink,
	}
	return g.run()
}

// BuildImageCLEF generates the Image CLEF-like instance.
func BuildImageCLEF(world *wikigen.World, s Scale) (*Instance, error) {
	ins, err := Build(world, ImageCLEFProfile(s))
	if err != nil {
		return nil, err
	}
	return ins[0], nil
}

// BuildCHiC generates the CHiC 2012 and CHiC 2013 instances over their
// shared collection.
func BuildCHiC(world *wikigen.World, s Scale) (chic2012, chic2013 *Instance, err error) {
	ins, err := Build(world, CHiCProfile(s))
	if err != nil {
		return nil, nil, err
	}
	return ins[0], ins[1], nil
}

type generator struct {
	world *wikigen.World
	p     CollectionProfile
	rng   *rand.Rand
	ixb   *index.Builder

	// zipfCum caches, per (topic, exponent), the cumulative
	// mention-popularity distribution over the topic's articles.
	zipfCum map[zipfKey][]float64

	// queryTopicsByDomain indexes the query topics per domain: queried
	// subjects are the popular ones, so cross-references land on them
	// disproportionately (popularity bias).
	queryTopicsByDomain map[int][]int

	sink   DocSink
	docSeq int
}

// addDoc indexes one document and feeds the sink.
func (g *generator) addDoc(name, text string) {
	g.ixb.Add(name, text)
	if g.sink != nil {
		g.sink(name, text)
	}
}

func (g *generator) run() ([]*Instance, error) {
	numTopics := len(g.world.Topics)
	needed := 0
	for _, qs := range g.p.QuerySets {
		needed += qs.NumQueries
	}
	if needed > numTopics {
		return nil, fmt.Errorf("dataset: %s needs %d query topics but world has %d", g.p.Name, needed, numTopics)
	}
	g.zipfCum = make(map[zipfKey][]float64)

	// Disjoint topic assignment across the collection's query sets.
	perm := g.rng.Perm(numTopics)
	next := 0

	instances := make([]*Instance, 0, len(g.p.QuerySets))
	type relJob struct {
		inst *Instance
		qi   int
	}
	var relJobs []relJob
	for _, qs := range g.p.QuerySets {
		inst := &Instance{
			Name:        qs.Name,
			World:       g.world,
			Qrels:       make(eval.Qrels),
			GroundTruth: make(map[string][]core.Feature),
		}
		zeroSet := g.pickZeroRelevant(qs)
		for i := 0; i < qs.NumQueries; i++ {
			topic := perm[next]
			next++
			q := g.makeQuery(qs, i, topic)
			if zeroSet[i] {
				q.NumRelevant = 0
			}
			inst.Queries = append(inst.Queries, q)
			inst.Qrels[q.ID] = make(map[string]bool)
			relJobs = append(relJobs, relJob{inst, i})
		}
		instances = append(instances, inst)
	}

	// Plan every document first, then emit them in shuffled order.
	// Interleaving matters: document IDs must carry no information about
	// relevance, otherwise deterministic tie-breaking on DocID would
	// systematically favour (or punish) relevant documents on the exact
	// score ties a synthetic corpus produces.
	type docJob struct {
		inst  *Instance // nil for distractors and near-misses
		q     *Query    // relevance target (inst != nil) …
		near  *Query    // … or near-miss topic source …
		plant *Query    // … or alias-noise plant
	}
	mentions := make(map[string]map[kb.NodeID]int)
	totalRel := 0
	jobs := make([]docJob, 0, g.p.NumDocs)
	for _, job := range relJobs {
		q := &job.inst.Queries[job.qi]
		mentions[q.ID] = make(map[kb.NodeID]int)
		for d := 0; d < q.NumRelevant; d++ {
			jobs = append(jobs, docJob{inst: job.inst, q: q})
			totalRel++
		}
		// Near-misses: documents about the query's topic that do NOT
		// satisfy the query's intent (and are judged non-relevant).
		// They mention the same articles but almost never carry the
		// user's vocabulary — relevance is narrower than topicality,
		// which is precisely why expansion features alone (Q_X) cannot
		// rank well while the anchored three-part query can.
		nNear := int(math.Round(g.p.NearMissFactor * float64(q.NumRelevant)))
		for d := 0; d < nNear; d++ {
			jobs = append(jobs, docJob{near: q})
		}
	}
	if totalRel >= g.p.NumDocs {
		return nil, fmt.Errorf("dataset: %s: %d relevant docs exceed collection size %d", g.p.Name, totalRel, g.p.NumDocs)
	}
	if len(jobs) >= g.p.NumDocs {
		return nil, fmt.Errorf("dataset: %s: %d relevant+near-miss docs exceed collection size %d", g.p.Name, len(jobs), g.p.NumDocs)
	}

	// Alias-noise plant jobs: distractor documents that will carry a
	// query's alias vocabulary without being relevant.
	var plants []*Query
	for _, inst := range instances {
		for qi := range inst.Queries {
			q := &inst.Queries[qi]
			n := int(math.Round(g.p.AliasNoiseFactor * q.AliasDocProb * float64(max(q.NumRelevant, 4))))
			for i := 0; i < n; i++ {
				plants = append(plants, q)
			}
		}
	}
	numDistractors := g.p.NumDocs - len(jobs)
	if len(plants) > numDistractors {
		plants = plants[:numDistractors]
	}
	for d := 0; d < numDistractors; d++ {
		var plant *Query
		if d < len(plants) {
			plant = plants[d]
		}
		jobs = append(jobs, docJob{plant: plant})
	}

	// Query-topic set, so topical distractors are drawn from elsewhere.
	queryTopics := make(map[int]bool, needed)
	for _, inst := range instances {
		for _, q := range inst.Queries {
			queryTopics[q.Topic] = true
		}
	}
	var freeTopics []int
	for t := range g.world.Topics {
		if !queryTopics[t] {
			freeTopics = append(freeTopics, t)
		}
	}
	g.queryTopicsByDomain = make(map[int][]int)
	for t := range queryTopics {
		d := g.world.Topics[t].Domain
		g.queryTopicsByDomain[d] = append(g.queryTopicsByDomain[d], t)
	}
	for _, ts := range g.queryTopicsByDomain {
		sort.Ints(ts) // map iteration order must not leak into the docs
	}

	g.rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	nearMentions := make(map[kb.NodeID]int) // discarded; near-misses never feed the ground truth
	for _, job := range jobs {
		name := g.nextDocName()
		switch {
		case job.inst != nil:
			g.addDoc(name, g.topicalDocText(job.q, mentions[job.q.ID], false))
			job.inst.Qrels.AddJudgment(job.q.ID, name)
		case job.near != nil:
			g.addDoc(name, g.topicalDocText(job.near, nearMentions, true))
		default:
			g.addDoc(name, g.distractorDocText(freeTopics, job.plant))
		}
	}

	ix := g.ixb.Build()
	for _, inst := range instances {
		inst.Index = ix
		for qi := range inst.Queries {
			q := &inst.Queries[qi]
			inst.GroundTruth[q.ID] = groundTruthFeatures(g.world.Graph, mentions[q.ID], q.Entities)
		}
	}
	return instances, nil
}

// pickZeroRelevant selects which query indices get no relevant docs.
func (g *generator) pickZeroRelevant(qs QuerySetProfile) map[int]bool {
	zero := make(map[int]bool, qs.ZeroRelevantQueries)
	if qs.ZeroRelevantQueries <= 0 {
		return zero
	}
	perm := g.rng.Perm(qs.NumQueries)
	for _, i := range perm[:min(qs.ZeroRelevantQueries, qs.NumQueries)] {
		zero[i] = true
	}
	return zero
}

// makeQuery draws a query over the given topic: alias-heavy text, manual
// entities, difficulty parameters and relevant count.
func (g *generator) makeQuery(qs QuerySetProfile, i, topicID int) Query {
	t := &g.world.Topics[topicID]
	q := Query{
		ID:    fmt.Sprintf("%s-%02d", qs.IDPrefix, i+1),
		Topic: topicID,
	}
	// Text: 2–3 alias terms — the user phrases the need entirely in
	// their own vocabulary (the paper's vocabulary mismatch).
	nAlias := 2 + g.rng.Intn(2)
	if nAlias > len(t.AliasTerms) {
		nAlias = len(t.AliasTerms)
	}
	perm := g.rng.Perm(len(t.AliasTerms))
	words := make([]string, 0, nAlias)
	for _, ai := range perm[:nAlias] {
		words = append(words, t.AliasTerms[ai])
	}
	q.Text = strings.Join(words, " ")

	// Manual entities: the topic's entity article, occasionally a second
	// prominent article.
	q.Entities = []kb.NodeID{t.Entity()}
	if len(t.Articles) > 1 && g.rng.Float64() < 0.25 {
		q.Entities = append(q.Entities, t.Articles[1])
	}

	nDecoy := 3 + g.rng.Intn(3)
	for i := 0; i < nDecoy; i++ {
		q.DecoyTerms = append(q.DecoyTerms, g.world.Background[g.rng.Intn(len(g.world.Background))])
	}

	q.TitleMentionProb = qs.TitleMentionLow + g.rng.Float64()*(qs.TitleMentionHigh-qs.TitleMentionLow)
	q.AliasDocProb = qs.AliasDocLow + g.rng.Float64()*(qs.AliasDocHigh-qs.AliasDocLow)

	rel := int(math.Round(g.rng.NormFloat64()*qs.StdRelevant + qs.MeanRelevant))
	if rel < qs.MinRelevant {
		rel = qs.MinRelevant
	}
	if capRel := int(qs.MeanRelevant * 3); rel > capRel && capRel > 0 {
		rel = capRel
	}
	q.NumRelevant = rel
	return q
}

func (g *generator) nextDocName() string {
	g.docSeq++
	return fmt.Sprintf("%s%07d", g.p.QuerySets[0].IDPrefix, g.docSeq)
}

// topicalDocText composes a caption about q's topic and records which
// articles it mentions. Near-miss documents (nearMiss true) use the same
// topical machinery but almost never the query's alias vocabulary: they
// are about the subject without answering the user's need.
func (g *generator) topicalDocText(q *Query, mentioned map[kb.NodeID]int, nearMiss bool) string {
	t := &g.world.Topics[q.Topic]
	aliasProb := q.AliasDocProb
	if nearMiss {
		aliasProb *= 0.12
	}
	var segments []string

	if g.rng.Float64() < q.TitleMentionProb {
		m := 1 + g.rng.Intn(3)
		for i := 0; i < m; i++ {
			a := g.sampleArticle(q.Topic)
			mentioned[a]++
			segments = append(segments, g.world.Graph.Title(a))
		}
	}
	nCore := 1 + g.rng.Intn(2)
	for i := 0; i < nCore; i++ {
		segments = append(segments, t.CoreTerms[g.rng.Intn(len(t.CoreTerms))])
	}
	for _, alias := range t.AliasTerms {
		if g.rng.Float64() < aliasProb {
			segments = append(segments, alias)
		}
	}
	g.maybeMentionHub(&segments)
	g.appendNoise(&segments)
	g.rng.Shuffle(len(segments), func(i, j int) { segments[i], segments[j] = segments[j], segments[i] })
	return strings.Join(segments, " ")
}

// maybeMentionHub name-drops a generic hub article: captions of every
// kind mention ubiquitous entities, which is exactly why hub titles are
// worthless expansion features.
func (g *generator) maybeMentionHub(segments *[]string) {
	hubs := g.world.Hubs
	if len(hubs) > 0 && g.rng.Float64() < 0.3 {
		*segments = append(*segments, g.world.Graph.Title(hubs[g.rng.Intn(len(hubs))]))
	}
}

// distractorDocText composes a non-relevant caption: usually about a
// non-query topic (optionally mentioning a same-domain article — which
// may belong to a query topic: the hard negatives), sometimes pure
// noise; plant, when non-nil, injects that query's alias vocabulary.
func (g *generator) distractorDocText(freeTopics []int, plant *Query) string {
	var segments []string
	if len(freeTopics) > 0 && g.rng.Float64() < 0.75 {
		topicID := freeTopics[g.rng.Intn(len(freeTopics))]
		t := &g.world.Topics[topicID]
		if g.rng.Float64() < 0.5 {
			segments = append(segments, g.world.Graph.Title(g.sampleArticle(topicID)))
		}
		nCore := 2 + g.rng.Intn(3)
		for i := 0; i < nCore; i++ {
			segments = append(segments, t.CoreTerms[g.rng.Intn(len(t.CoreTerms))])
		}
		for k := 0; k < 2; k++ {
			if g.rng.Float64() >= g.p.CrossTopicMentionProb {
				continue
			}
			// Popularity bias: cross-references land on queried (popular)
			// topics most of the time.
			dom := &g.world.Domains[t.Domain]
			var other int
			if qts := g.queryTopicsByDomain[t.Domain]; len(qts) > 0 && g.rng.Float64() < 0.65 {
				other = qts[g.rng.Intn(len(qts))]
			} else {
				other = dom.Topics[g.rng.Intn(len(dom.Topics))]
			}
			if other == topicID {
				continue
			}
			// Cross-references name-drop the head entity about a third
			// of the time and an arbitrary article otherwise — tail
			// titles, too, occur outside relevant documents.
			a := g.sampleCrossMention(other)
			if g.rng.Float64() < 0.65 {
				a = g.sampleArticle(other)
			}
			segments = append(segments, g.world.Graph.Title(a))
			// Cross-references often name several entities of the
			// referenced subject in one breath.
			if g.rng.Float64() < 0.5 {
				segments = append(segments, g.world.Graph.Title(g.sampleArticle(other)))
			}
		}
	}
	if plant != nil {
		t := &g.world.Topics[plant.Topic]
		n := 3
		perm := g.rng.Perm(len(t.AliasTerms))
		for _, ai := range perm[:min(n, len(t.AliasTerms))] {
			segments = append(segments, t.AliasTerms[ai])
		}
		// Planted documents are terse: like real false positives they
		// contain little beyond the misleading vocabulary, which also
		// lets them win Dirichlet ties against longer relevant captions.
		// They share the query's decoy vocabulary: they are all about
		// the same wrong sense of the query.
		nd := 2 + g.rng.Intn(2)
		for i := 0; i < nd && i < len(plant.DecoyTerms); i++ {
			segments = append(segments, plant.DecoyTerms[i])
		}
		// Some alias-noise documents also name-drop the topic's head
		// entity ("cable car toy museum"): hard negatives that fool the
		// user query and the entity title alike, but not the tail
		// expansion features.
		if g.rng.Float64() < 0.22 {
			segments = append(segments, g.world.Graph.Title(g.sampleCrossMention(plant.Topic)))
		}
		g.appendNoiseN(&segments, 2, 5)
	} else {
		g.appendNoise(&segments)
	}
	g.maybeMentionHub(&segments)
	g.rng.Shuffle(len(segments), func(i, j int) { segments[i], segments[j] = segments[j], segments[i] })
	return strings.Join(segments, " ")
}

func (g *generator) appendNoise(segments *[]string) { g.appendNoiseN(segments, 4, 10) }

func (g *generator) appendNoiseN(segments *[]string, lo, hi int) {
	n := lo + g.rng.Intn(hi-lo+1)
	for i := 0; i < n; i++ {
		*segments = append(*segments, g.world.Background[g.rng.Intn(len(g.world.Background))])
	}
}

// sampleArticle draws an article of the topic under the in-topic Zipf
// popularity distribution (article 0, the entity, is the head).
func (g *generator) sampleArticle(topicID int) kb.NodeID {
	return g.sampleArticleZipf(topicID, g.p.MentionZipf)
}

// sampleCrossMention draws the article another topic's document
// name-drops; the steeper exponent concentrates on the head entity.
func (g *generator) sampleCrossMention(topicID int) kb.NodeID {
	return g.sampleArticleZipf(topicID, g.p.CrossMentionZipf)
}

// zipfKey caches one cumulative distribution per (topic, exponent).
type zipfKey struct {
	topic int
	exp   float64
}

func (g *generator) sampleArticleZipf(topicID int, exp float64) kb.NodeID {
	t := &g.world.Topics[topicID]
	key := zipfKey{topicID, exp}
	cum, ok := g.zipfCum[key]
	if !ok {
		cum = make([]float64, len(t.Articles))
		total := 0.0
		for i := range t.Articles {
			total += 1 / math.Pow(float64(i+1), exp)
			cum[i] = total
		}
		for i := range cum {
			cum[i] /= total
		}
		g.zipfCum[key] = cum
	}
	x := g.rng.Float64()
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return t.Articles[lo]
}

// groundTruthFeatures ranks the mentioned articles by mention count and
// drops the query nodes themselves. Single-word titles are excluded:
// their terms come from the shared content pool, so as retrieval
// features they are ambiguous — an optimal query graph (one selected for
// precision, as in the published ground truth) would not contain them.
func groundTruthFeatures(g *kb.Graph, mentioned map[kb.NodeID]int, entities []kb.NodeID) []core.Feature {
	isEntity := make(map[kb.NodeID]bool, len(entities))
	for _, e := range entities {
		isEntity[e] = true
	}
	feats := make([]core.Feature, 0, len(mentioned))
	for a, c := range mentioned {
		if isEntity[a] {
			continue
		}
		if !strings.Contains(g.Title(a), " ") {
			continue
		}
		// Squared mention counts concentrate the query mass on the
		// strongest features while the tail still adds recall — closer
		// to a precision-optimal graph than linear weighting.
		feats = append(feats, core.Feature{Article: a, Weight: float64(c) * float64(c)})
	}
	core.SortFeatures(feats)
	const maxGT = 12
	if len(feats) > maxGT {
		feats = feats[:maxGT]
	}
	return feats
}
