// Real-dump workflow: import a MediaWiki XML export (here a bundled
// sample; point -dump at an actual Wikipedia pages-articles dump for the
// real thing), index a caption collection, and run SQE with entities
// linked through the dump's own anchor text.
//
// This is the paper's deployment path end to end: KB = Wikipedia,
// entity linker = anchor-text commonness dictionary (Dexter's recipe),
// expansion = triangular + square motifs over the imported structure.
//
// Run with:
//
//	go run ./examples/wikipedia_dump [-dump path/to/dump.xml] [-maxpages N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	sqe "repro"
)

func main() {
	log.SetFlags(0)
	dumpFlag := flag.String("dump", defaultDump(), "MediaWiki XML export to import")
	maxPages := flag.Int("maxpages", 0, "stop after N pages (0 = all); use when pointing at a full dump")
	flag.Parse()

	f, err := os.Open(*dumpFlag)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	imp, err := sqe.ImportWikiXML(f, sqe.WikiImportOptions{MaxPages: *maxPages})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported %s: %d articles, %d categories, %d links resolved, %d red links, %d anchor surfaces\n\n",
		filepath.Base(*dumpFlag), imp.Stats.Articles, imp.Stats.Categories,
		imp.Stats.LinksResolved, imp.Stats.LinksRed, imp.Stats.AnchorSurfaces)

	// A small caption collection over the dump's subject matter.
	ib := sqe.NewIndexBuilder()
	for name, text := range map[string]string{
		"img-001": "a funicular climbing the hillside at dawn",
		"img-002": "the famous cable car turnaround in san francisco",
		"img-003": "vintage funicular railway car on steep rails",
		"img-004": "a tram waiting at the market street stop",
		"img-005": "stencil by banksy on a brick wall",
		"img-006": "colorful graffiti along the canal walls",
		"img-007": "sunset over the bay with sailboats",
		"img-008": "cable car gripman working the lever",
	} {
		ib.Add(name, text)
	}
	eng := sqe.NewEngine(imp.Graph, ib.Build(),
		sqe.WithLinker(imp.Dictionary),
		sqe.WithMu(25)) // small μ for a tiny collection

	for _, query := range []string{"cable cars", "graffiti street art on walls"} {
		fmt.Printf("query: %q\n", query)
		// One Do call: SQE_C retrieval with entities linked through the
		// anchor dictionary, expansion reported alongside the results.
		resp, err := eng.Do(context.Background(), sqe.SearchRequest{Query: query, K: 5})
		if err != nil {
			log.Fatal(err)
		}
		if exp := resp.Expansion; exp != nil {
			fmt.Printf("  linked entities: %v\n", exp.QueryNodeTitles)
			fmt.Printf("  expansion features:")
			for _, feat := range exp.Features {
				fmt.Printf(" %q(|m_a|=%.0f)", feat.Title, feat.Weight)
			}
			fmt.Println()
		}
		for i, r := range resp.Results {
			fmt.Printf("  %d. %s\n", i+1, r.Name)
		}
		fmt.Println()
	}
}

// defaultDump locates the bundled sample next to this file when run via
// `go run ./examples/wikipedia_dump`.
func defaultDump() string {
	if _, err := os.Stat("examples/wikipedia_dump/sample_dump.xml"); err == nil {
		return "examples/wikipedia_dump/sample_dump.xml"
	}
	return "sample_dump.xml"
}
