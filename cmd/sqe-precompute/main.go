// Command sqe-precompute builds the offline expansion store served by
// sqe-serve's -precomputed flag (DESIGN.md §5h): it enumerates entity
// sets, runs motif expansion once for each (entity set, motif set)
// pair, and writes the resulting query graphs to a checksummed binary
// store keyed by the complete expansion configuration. A server with
// the store attached answers those expansions with a hash lookup —
// byte-identical to live motif search — and falls through to a live
// build for anything else.
//
// Usage:
//
//	sqe-precompute -out expansions.store [-scale small|default | -kb kb.graph]
//	               [-querylog queries.tsv] [-force] [-selfcheck]
//
// The KB comes from either -kb (a binary graph written by sqe-gen) or
// -scale (the deterministic demo generator — the same KB sqe-serve
// boots, so the store's content hash matches a demo server's graph).
//
// Enumerated entity sets: every article in the KB as a singleton, the
// demo benchmark queries' manual entity sets (in -scale mode), and the
// entity sets observed in -querylog — a TSV whose last tab-separated
// field is the |-joined entity titles, exactly the queries.tsv format
// sqe-gen emits. Log lines naming unknown titles are skipped with a
// warning count, not fatal: a query log routinely outlives KB edits.
//
// Incremental rebuild: when -out already holds a store whose recorded
// KB content hash matches the current graph, the build is skipped
// ("up to date") unless -force is given. The store format is
// deterministic, so rebuilding identical content produces identical
// bytes anyway; the hash check just saves the expansion work.
//
// -selfcheck reopens the written store and replays every enumerated
// (entity set, motif set) pair against a fresh live expansion,
// demanding byte-identical graphs — the same parity invariant
// TestPrecomputedStoreParity enforces at engine level.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"
	"strings"

	sqe "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/motif"
)

// storeSets are the motif configurations precomputed per entity set:
// SQE_C's three runs, which also cover every explicit single-set
// request the serving API accepts.
var storeSets = []motif.Set{motif.SetT, motif.SetTS, motif.SetS}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sqe-precompute: ")
	outFlag := flag.String("out", "", "output store path (required)")
	kbFlag := flag.String("kb", "", "binary KB graph (written by sqe-gen); mutually exclusive with -scale")
	scaleFlag := flag.String("scale", "small", "demo KB scale: small|default (ignored when -kb is given)")
	querylog := flag.String("querylog", "", "TSV query log; last tab-separated field is |-joined entity titles")
	force := flag.Bool("force", false, "rebuild even when the existing store's KB hash matches")
	selfcheck := flag.Bool("selfcheck", false, "reopen the written store and verify every entry against live expansion")
	flag.Parse()
	if *outFlag == "" {
		flag.Usage()
		os.Exit(2)
	}

	g, entitySets, err := loadKB(*kbFlag, *scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	hash := g.ContentHash()
	log.Printf("KB: %d articles, content hash %016x", g.NumArticles(), hash)

	if !*force {
		if prev, err := core.OpenStoreFile(*outFlag); err == nil {
			if prev.KBHash() == hash {
				log.Printf("%s is up to date (%d entries, matching KB hash); use -force to rebuild", *outFlag, prev.Len())
				return
			}
			log.Printf("existing store has stale KB hash %016x; rebuilding", prev.KBHash())
		}
	}

	// Every article as a singleton entity set: expansion depends only on
	// the KB, so the whole per-entity expansion table is enumerable.
	g.Articles(func(id kb.NodeID) bool {
		entitySets = append(entitySets, []kb.NodeID{id})
		return true
	})
	if *querylog != "" {
		logSets, skipped, err := readQueryLog(*querylog, g)
		if err != nil {
			log.Fatal(err)
		}
		if skipped > 0 {
			log.Printf("query log: skipped %d lines with unknown entity titles", skipped)
		}
		log.Printf("query log: %d entity sets", len(logSets))
		entitySets = append(entitySets, logSets...)
	}

	expander := core.NewExpander(g, analysis.Standard())
	entries := core.PrecomputeEntries(expander, entitySets, storeSets)
	if err := core.WriteStoreFile(*outFlag, hash, entries); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(*outFlag)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s: %d entries (%d entity sets × %d motif sets, deduplicated), %d bytes",
		*outFlag, len(entries), len(entitySets), len(storeSets), info.Size())

	if *selfcheck {
		if err := runSelfcheck(*outFlag, hash, expander, entitySets); err != nil {
			log.Fatalf("SELFCHECK FAIL: %v", err)
		}
		log.Println("SELFCHECK OK")
	}
}

// loadKB returns the graph plus any entity sets that come with it (the
// demo benchmark queries' manual entities, in -scale mode).
func loadKB(kbPath, scale string) (*kb.Graph, [][]kb.NodeID, error) {
	if kbPath != "" {
		f, err := os.Open(kbPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		g, err := kb.Decode(f)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", kbPath, err)
		}
		return g, nil, nil
	}
	demoScale := sqe.DemoSmall
	switch scale {
	case "small":
	case "default":
		demoScale = sqe.DemoDefault
	default:
		return nil, nil, fmt.Errorf("unknown scale %q (want small or default)", scale)
	}
	log.Println("generating demo environment …")
	env, err := sqe.GenerateDemo(demoScale)
	if err != nil {
		return nil, nil, err
	}
	g := env.Engine.Graph()
	var sets [][]kb.NodeID
	for i := range env.Queries {
		if nodes, ok := resolveTitles(g, env.Queries[i].EntityTitles); ok {
			sets = append(sets, nodes)
		}
	}
	return g, sets, nil
}

// readQueryLog extracts the entity sets observed in a TSV query log:
// one query per line, entity titles |-joined in the last tab-separated
// field (sqe-gen's queries.tsv layout). Lines with no titles or with
// titles the KB does not know are skipped, not fatal.
func readQueryLog(path string, g *kb.Graph) (sets [][]kb.NodeID, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		titles := strings.Split(fields[len(fields)-1], "|")
		nodes, ok := resolveTitles(g, titles)
		if !ok {
			skipped++
			continue
		}
		if len(nodes) > 0 {
			sets = append(sets, nodes)
		}
	}
	return sets, skipped, sc.Err()
}

// resolveTitles maps titles to article nodes; ok is false when any
// title is unknown or not an article (blank titles are ignored).
func resolveTitles(g *kb.Graph, titles []string) ([]kb.NodeID, bool) {
	nodes := make([]kb.NodeID, 0, len(titles))
	for _, t := range titles {
		t = strings.TrimSpace(t)
		if t == "" {
			continue
		}
		id := g.ByTitle(t)
		if id == kb.Invalid || g.Kind(id) != kb.KindArticle {
			return nil, false
		}
		nodes = append(nodes, id)
	}
	return nodes, true
}

// runSelfcheck reopens the store and replays every enumerated pair
// against a fresh live expansion, comparing byte for byte.
func runSelfcheck(path string, wantHash uint64, e *core.Expander, entitySets [][]kb.NodeID) error {
	st, err := core.OpenStoreFile(path)
	if err != nil {
		return err
	}
	if st.KBHash() != wantHash {
		return fmt.Errorf("store KB hash %016x, want %016x", st.KBHash(), wantHash)
	}
	checked := 0
	for _, nodes := range entitySets {
		for _, set := range storeSets {
			live := e.BuildQueryGraph(nodes, set)
			stored := e.BuildQueryGraphStored(nodes, set, nil, st)
			if !reflect.DeepEqual(live, stored) {
				return fmt.Errorf("entity set %v, motif set %v: stored expansion differs from live", nodes, set)
			}
			checked++
		}
	}
	if stats := st.Stats(); stats.Misses > 0 {
		return fmt.Errorf("%d lookups missed a store that should cover every enumerated pair", stats.Misses)
	}
	log.Printf("  verified %d (entity set, motif set) pairs byte-identical to live expansion", checked)
	return nil
}
