package main

import (
	"fmt"
	"math/rand"
)

// Workloads.
const (
	wlSearchHot   = "search-hot"
	wlExpandWide  = "expand-wide"
	wlLiveMixed   = "live-mixed"
	wlCoordinator = "coordinator-s2"
)

var workloadNames = []string{wlSearchHot, wlExpandWide, wlLiveMixed, wlCoordinator}

// Kinds of search request.
const (
	kindManual   = "manual"   // POST /v1/search, SQE_C, entity titles given
	kindAuto     = "auto"     // POST /v1/search, SQE_C, the linker finds the entities
	kindBaseline = "baseline" // GET /v1/baseline
)

const (
	resultDepth = 10 // k of every search request
	ingestBatch = 64 // documents added (and deleted) per /v1/ingest
	// A batch is deleted ingestWindow batches after it was added, and
	// every compactEvery-th batch carries compact:true. At the seed commit
	// a batch takes ~80 ms (each delete scans every document name and
	// commits a manifest), so 16 puts one whole compaction cycle inside
	// each 2 s segment; at 64 a cycle would outlast two segments and the
	// measured phase would hold three cycles, not thirteen.
	ingestWindow  = 16
	compactEvery  = 16
	manualShare   = 0.6
	autoShare     = 0.2 // the rest is baseline
	oneEntityP    = 0.5
	twoEntitiesP  = 0.3 // the rest asks for three
	clientSeedGap = 7919
)

// searchReq names one search request: a kind and a query index.
type searchReq struct {
	Kind  string
	Query int
}

// searchStream walks the judged queries in a seeded shuffle, reshuffled
// each lap, drawing each request's kind from the workload's mix.
type searchStream struct {
	rng        *rand.Rand
	order      []int
	pos        int
	manualOnly bool
}

func newSearchStream(seed int64, queries int, manualOnly bool) *searchStream {
	s := &searchStream{rng: rand.New(rand.NewSource(seed)), order: make([]int, queries), manualOnly: manualOnly}
	for i := range s.order {
		s.order[i] = i
	}
	s.pos = queries // shuffle on first use
	return s
}

func (s *searchStream) next() searchReq {
	if s.pos == len(s.order) {
		s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
		s.pos = 0
	}
	q := s.order[s.pos]
	s.pos++
	kind := kindManual
	if !s.manualOnly {
		switch p := s.rng.Float64(); {
		case p < manualShare:
		case p < manualShare+autoShare:
			kind = kindAuto
		default:
			kind = kindBaseline
		}
	}
	return searchReq{kind, q}
}

// expandReq is one /v1/expand request.
type expandReq struct {
	Query    string   `json:"query"`
	Entities []string `json:"entities"`
	Set      string   `json:"set"`
}

var expandSets = [3]string{"T", "TS", "S"}

// expandStream draws one to three distinct article titles uniformly from
// the whole KB, cycling the motif set.
type expandStream struct {
	rng    *rand.Rand
	titles []string
	n      int
}

func newExpandStream(seed int64, titles []string) *expandStream {
	return &expandStream{rng: rand.New(rand.NewSource(seed)), titles: titles}
}

func (s *expandStream) next() expandReq {
	want := 3
	switch p := s.rng.Float64(); {
	case p < oneEntityP:
		want = 1
	case p < oneEntityP+twoEntitiesP:
		want = 2
	}
	var ents []string
	for len(ents) < want {
		t := s.titles[s.rng.Intn(len(s.titles))]
		dup := false
		for _, e := range ents {
			dup = dup || e == t
		}
		if !dup {
			ents = append(ents, t)
		}
	}
	set := expandSets[s.n%len(expandSets)]
	s.n++
	// The endpoint insists on a query text; expansion itself reads only
	// the entities.
	return expandReq{Query: ents[0], Entities: ents, Set: set}
}

// ingestOp is one /v1/ingest request body.
type ingestOp struct {
	Add     []document `json:"add"`
	Delete  []string   `json:"delete,omitempty"`
	Flush   bool       `json:"flush,omitempty"`
	Compact bool       `json:"compact,omitempty"`
}

// ingestStream is the writer's sliding window over a ring of documents:
// batch b adds the next ingestBatch ring documents and deletes the ones
// batch b-ingestWindow added, so the live count settles and stays put.
// A ring document comes round again under a new name (name@lap), so a
// name, once deleted, is gone for good and a reader can tell a stale
// hit from a fresh copy.
type ingestStream struct {
	ring   []document
	start  int
	batch  int
	window [][]document // the last ingestWindow batches, oldest first
}

func newIngestStream(seed int64, ring []document) *ingestStream {
	return &ingestStream{ring: ring, start: rand.New(rand.NewSource(seed)).Intn(len(ring))}
}

func (s *ingestStream) next() ingestOp {
	op := ingestOp{Add: make([]document, ingestBatch), Compact: (s.batch+1)%compactEvery == 0}
	for j := range op.Add {
		p := s.batch*ingestBatch + j
		d := s.ring[(s.start+p)%len(s.ring)]
		op.Add[j] = document{Name: fmt.Sprintf("%s@%d", d.Name, p/len(s.ring)), Text: d.Text}
	}
	if len(s.window) == ingestWindow {
		for _, d := range s.window[0] {
			op.Delete = append(op.Delete, d.Name)
		}
		s.window = s.window[1:]
	}
	s.window = append(s.window, op.Add)
	s.batch++
	return op
}

// compactNext reports whether the next batch carries compact:true, i.e.
// the index is at the fullest point of its compaction cycle.
func (s *ingestStream) compactNext() bool { return (s.batch+1)%compactEvery == 0 }

// live lists the ring documents currently in the index, oldest first.
func (s *ingestStream) live() []document {
	var out []document
	for _, b := range s.window {
		out = append(out, b...)
	}
	return out
}
