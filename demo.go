package sqe

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/entitylink"
	"repro/internal/wikigen"
)

// DemoScale selects the size of the generated demo environment.
type DemoScale int

const (
	// DemoSmall generates in well under a second; used by examples and
	// tests.
	DemoSmall DemoScale = iota
	// DemoDefault is the benchmark-harness scale (a few seconds).
	DemoDefault
)

// DemoQuery is one benchmark query of a demo environment, with its
// manually selected entity titles and relevance judgments.
type DemoQuery struct {
	ID string
	// Text is what the user typed.
	Text string
	// EntityTitles are the manually selected query entities.
	EntityTitles []string
	// Relevant is the set of relevant document names.
	Relevant map[string]bool
}

// DemoEnv is a ready-to-search environment: a synthetic Wikipedia-like
// KB, an indexed caption collection coupled to it, an engine wired over
// both (with an entity linker installed) and an evaluable query set.
//
// The real assets of the paper (the 2012 Wikipedia dump and the Image
// CLEF / CHiC collections) are not redistributable; DESIGN.md §2
// explains why this synthetic environment preserves the behaviours SQE
// depends on.
type DemoEnv struct {
	Engine  *Engine
	Queries []DemoQuery
	// DatasetName names the generated instance ("Image CLEF").
	DatasetName string
}

// GenerateDemo builds the Image CLEF-like demo environment. Generation
// is deterministic: the same scale always yields the same environment.
// Engine options (WithExpansionCache, WithSQECWorkers, …) are applied to
// the environment's engine; the demo linker is installed regardless.
func GenerateDemo(scale DemoScale, opts ...Option) (*DemoEnv, error) {
	return GenerateDemoOver(scale, nil, opts...)
}

// GenerateDemoOver is GenerateDemo with the engine retrieving from ix —
// typically index.Open over a file written from the demo's index —
// instead of the generated in-memory index. The knowledge graph, linker
// and queries are still the demo's, so ix must hold the demo corpus at
// this scale: a different document count is an error. A nil ix serves
// the generated index, as GenerateDemo does.
func GenerateDemoOver(scale DemoScale, ix *Index, opts ...Option) (*DemoEnv, error) {
	env, _, err := generateDemo(scale, nil, ix, opts...)
	return env, err
}

// DemoDoc is one document of the demo corpus, exactly as it was (or is
// to be) indexed.
type DemoDoc struct {
	Name, Text string
}

// GenerateDemoCorpus is GenerateDemo plus the raw document stream: the
// returned docs are every indexed document in index order, so a caller
// can rebuild (or incrementally re-ingest) a corpus guaranteed
// identical to the environment's index. The /v1/ingest streaming test
// and the segment differential tests are built on this.
func GenerateDemoCorpus(scale DemoScale, opts ...Option) (*DemoEnv, []DemoDoc, error) {
	return generateDemo(scale, &[]DemoDoc{}, nil, opts...)
}

// generateDemo builds the demo world and instance, capturing the
// document stream when docs is non-nil, and puts the engine over ix
// (the generated index when nil).
func generateDemo(scale DemoScale, docs *[]DemoDoc, ix *Index, opts ...Option) (*DemoEnv, []DemoDoc, error) {
	world, inst, captured, err := generateDemoInstance(scale, docs)
	if err != nil {
		return nil, nil, err
	}
	if ix == nil {
		ix = inst.Index
	} else if ix.NumDocs() != inst.Index.NumDocs() {
		return nil, nil, fmt.Errorf("sqe: index holds %d docs, the demo corpus at this scale has %d", ix.NumDocs(), inst.Index.NumDocs())
	}
	eng := NewEngine(world.Graph, ix, opts...)
	eng.linker = dataset.BuildLinker(world, dataset.DefaultLinkerOptions())
	return demoEnvFrom(world, inst, eng), captured, nil
}

// GenerateDemoLive builds a demo environment whose engine serves a live
// (segmented) index rooted at dir instead of the prebuilt immutable
// one. The live index starts with whatever dir already holds (empty for
// a fresh directory) — the returned docs are the demo corpus in index
// order, ready to be streamed in through Engine.Ingest or /v1/ingest;
// once all are ingested, retrieval is bit-identical to GenerateDemo's
// engine. flushDocs <= 0 keeps the default flush threshold.
func GenerateDemoLive(scale DemoScale, dir string, flushDocs int, opts ...Option) (*DemoEnv, []DemoDoc, error) {
	world, inst, docs, err := generateDemoInstance(scale, &[]DemoDoc{})
	if err != nil {
		return nil, nil, err
	}
	live, err := OpenLiveIndex(dir, flushDocs)
	if err != nil {
		return nil, nil, err
	}
	eng := NewLiveEngine(world.Graph, live, opts...)
	eng.linker = dataset.BuildLinker(world, dataset.DefaultLinkerOptions())
	return demoEnvFrom(world, inst, eng), docs, nil
}

// generateDemoInstance generates the world and dataset instance,
// appending the document stream to docs when non-nil.
func generateDemoInstance(scale DemoScale, docs *[]DemoDoc) (*wikigen.World, *dataset.Instance, []DemoDoc, error) {
	cfg := wikigen.DefaultConfig()
	ds := dataset.ScaleDefault
	if scale == DemoSmall {
		cfg = wikigen.SmallConfig()
		ds = dataset.ScaleSmall
	}
	world, err := wikigen.Generate(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var sink dataset.DocSink
	if docs != nil {
		sink = func(name, text string) { *docs = append(*docs, DemoDoc{Name: name, Text: text}) }
	}
	ins, err := dataset.BuildWithSink(world, dataset.ImageCLEFProfile(ds), sink)
	if err != nil {
		return nil, nil, nil, err
	}
	var captured []DemoDoc
	if docs != nil {
		captured = *docs
	}
	return world, ins[0], captured, nil
}

// demoEnvFrom assembles the public environment from a generated world,
// instance and engine.
func demoEnvFrom(world *wikigen.World, inst *dataset.Instance, eng *Engine) *DemoEnv {
	env := &DemoEnv{Engine: eng, DatasetName: inst.Name}
	for _, q := range inst.Queries {
		dq := DemoQuery{ID: q.ID, Text: q.Text, Relevant: inst.Qrels[q.ID]}
		for _, e := range q.Entities {
			dq.EntityTitles = append(dq.EntityTitles, world.Graph.Title(e))
		}
		env.Queries = append(env.Queries, dq)
	}
	return env
}

// MustGenerateDemo is GenerateDemo but panics on error; the error paths
// are configuration mistakes that cannot happen with the built-in
// scales.
func MustGenerateDemo(scale DemoScale, opts ...Option) *DemoEnv {
	env, err := GenerateDemo(scale, opts...)
	if err != nil {
		panic(err)
	}
	return env
}

// PrecisionAt computes precision-at-k of a ranked result list against a
// relevance set, TrecEval-style (lists shorter than k count the missing
// ranks as non-relevant).
func PrecisionAt(results []Result, relevant map[string]bool, k int) float64 {
	if k <= 0 {
		return 0
	}
	hits := 0
	for i, r := range results {
		if i >= k {
			break
		}
		if relevant[r.Name] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// NewEntityDictionary returns an empty entity-linking dictionary using
// the engine's text pipeline; fill it with AddTitle/AddSurface and
// install it with the WithLinker option.
func NewEntityDictionary(e *Engine) *entitylink.Dictionary {
	return entitylink.NewDictionary(e.Index().Analyzer())
}
