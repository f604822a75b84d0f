// Bring-your-own-data: build a knowledge base and a document collection
// from scratch with the public builders and run SQE over them. This is
// the adoption path for any KB with articles, categories and links — a
// company wiki, a product taxonomy, a citation graph.
//
// The tiny KB below models the paper's own running example (Figure 4):
// the query "cable cars" expands to "Funicular" through a triangular
// motif, which is exactly what surfaces the funicular documents that the
// raw query misses.
//
// Run with:
//
//	go run ./examples/custom_kb
package main

import (
	"context"
	"fmt"
	"log"

	sqe "repro"
)

func main() {
	log.SetFlags(0)

	// 1. The knowledge base: articles, categories, links.
	gb := sqe.NewGraphBuilder(16)
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	art := func(title string) sqe.NodeID {
		id, err := gb.AddArticle(title)
		must(err)
		return id
	}
	cat := func(title string) sqe.NodeID {
		id, err := gb.AddCategory(title)
		must(err)
		return id
	}
	cableCar := art("Cable car")
	funicular := art("Funicular")
	tram := art("Tram")
	banksy := art("Banksy")
	graffiti := art("Graffiti")

	transport := cat("Category:Transport")
	railTransport := cat("Category:Cable railways")
	streetArt := cat("Category:Street art")
	artists := cat("Category:Artists")
	must(gb.AddContainment(transport, railTransport))
	must(gb.AddContainment(streetArt, artists))

	// Cable car ↔ Funicular are doubly linked and Funicular carries at
	// least Cable car's categories → triangular motif.
	must(gb.AddMembership(cableCar, railTransport))
	must(gb.AddMembership(funicular, railTransport))
	must(gb.AddMembership(funicular, transport))
	must(gb.AddLink(cableCar, funicular))
	must(gb.AddLink(funicular, cableCar))
	// Tram is linked one-way only: no motif, no expansion.
	must(gb.AddLink(cableCar, tram))
	must(gb.AddMembership(tram, transport))
	// Graffiti ↔ Banksy with a category-containment pair → square motif.
	must(gb.AddMembership(graffiti, streetArt))
	must(gb.AddMembership(banksy, artists))
	must(gb.AddLink(graffiti, banksy))
	must(gb.AddLink(banksy, graffiti))

	graph := gb.Build()

	// 2. The document collection.
	ib := sqe.NewIndexBuilder()
	docs := map[string]string{
		"doc-funicular-1": "the funicular climbs the mountain on steel rails",
		"doc-funicular-2": "vintage funicular railway photographed at dawn",
		"doc-cable-1":     "a cable car crossing the bay on a foggy morning",
		"doc-tram-1":      "a tram waiting at the central station",
		"doc-banksy-1":    "a stencil by banksy on a brick wall",
		"doc-graffiti-1":  "colorful graffiti along the canal",
		"doc-noise-1":     "sunset over the harbor with fishing boats",
	}
	for name, text := range docs {
		ib.Add(name, text)
	}
	ix := ib.Build()

	// A small μ suits a seven-document collection. Options configure the
	// engine at construction; it is immutable (and concurrency-safe)
	// afterwards.
	engine := sqe.NewEngine(graph, ix, sqe.WithMu(10))

	// 3. Expansion in action: "cable cars" reaches the funicular docs.
	exp, err := engine.Expand("cable cars", []string{"Cable car"}, sqe.MotifTS)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query: \"cable cars\", entity: Cable car")
	fmt.Printf("expansion features: ")
	for _, f := range exp.Features {
		fmt.Printf("%q(|m_a|=%.0f) ", f.Title, f.Weight)
	}
	fmt.Println()

	ctx := context.Background()
	baseline, err := engine.Do(ctx, sqe.SearchRequest{Query: "cable cars", K: 5, Baseline: true})
	if err != nil {
		log.Fatal(err)
	}
	expanded, err := engine.Do(ctx, sqe.SearchRequest{
		Query: "cable cars", EntityTitles: []string{"Cable car"}, MotifSet: sqe.MotifTS, K: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbaseline ranking:")
	for i, r := range baseline.Results {
		fmt.Printf("  %d. %s\n", i+1, r.Name)
	}
	fmt.Println("expanded ranking:")
	for i, r := range expanded.Results {
		fmt.Printf("  %d. %s\n", i+1, r.Name)
	}

	// 4. Square motif on the second query of the paper's Figure 4.
	exp2, err := engine.Expand("graffiti street art on walls", []string{"Graffiti"}, sqe.MotifS)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery: \"graffiti street art on walls\", entity: Graffiti\n")
	fmt.Printf("square-motif features: ")
	for _, f := range exp2.Features {
		fmt.Printf("%q ", f.Title)
	}
	fmt.Println()
}
