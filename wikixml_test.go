package sqe

import (
	"context"
	"strings"
	"testing"
)

const miniDump = `<?xml version="1.0"?>
<mediawiki>
  <page><title>Cable car</title><ns>0</ns>
    <revision><text>See the [[funicular]]. [[Category:Cable railways]]</text></revision></page>
  <page><title>Funicular</title><ns>0</ns>
    <revision><text>Like a [[cable car|cable railway car]]. [[Category:Cable railways]]</text></revision></page>
  <page><title>Category:Cable railways</title><ns>14</ns>
    <revision><text></text></revision></page>
</mediawiki>`

func TestImportWikiXMLEndToEnd(t *testing.T) {
	imp, err := ImportWikiXML(strings.NewReader(miniDump), WikiImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if imp.Graph.NumArticles() != 2 || imp.Graph.NumCategories() != 1 {
		t.Fatalf("graph shape: %d articles, %d categories", imp.Graph.NumArticles(), imp.Graph.NumCategories())
	}

	ib := NewIndexBuilder()
	ib.Add("d1", "the funicular railway climbs steeply")
	ib.Add("d2", "a cable car in the fog")
	ib.Add("d3", "boats in the harbor")
	eng := NewEngine(imp.Graph, ib.Build(),
		WithLinker(imp.Dictionary), WithMu(10))

	// Automatic linking through the anchor dictionary ("cable railway
	// car" was an anchor for Cable car; the title itself links too).
	exp, err := eng.Expand("cable car rides", nil, MotifTS)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.QueryNodes) == 0 {
		t.Fatal("linker found no entities")
	}
	if exp.QueryNodeTitles[0] != "Cable car" {
		t.Errorf("linked %v", exp.QueryNodeTitles)
	}
	// The triangular motif fires on the imported structure: doubly
	// linked + same category.
	found := false
	for _, f := range exp.Features {
		if f.Title == "Funicular" {
			found = true
		}
	}
	if !found {
		t.Errorf("Funicular not among features: %+v", exp.Features)
	}

	resp, err := eng.Do(context.Background(), SearchRequest{Query: "cable car rides", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range resp.Results {
		names[r.Name] = true
	}
	if !names["d1"] || !names["d2"] {
		t.Errorf("expanded search missed documents: %v", resp.Results)
	}
}

func TestImportWikiXMLErrors(t *testing.T) {
	if _, err := ImportWikiXML(strings.NewReader("<mediawiki><page>"), WikiImportOptions{}); err == nil {
		t.Error("malformed dump should error")
	}
}
