// Command sqe-inspect prints per-query diagnostics for the reproduction
// environment: the query, its entities (manual and automatically
// linked), the motif expansion features, the ground-truth features and
// the top results of each configuration with relevance marks.
//
// Usage:
//
//	sqe-inspect [-scale small|default] [-dataset imageclef|chic2012|chic2013] [-n 3] [-top 10]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/kb"
	"repro/internal/motif"
	"repro/internal/search"
)

// indent prefixes every line for nested display.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "    " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sqe-inspect: ")
	scaleFlag := flag.String("scale", "default", "small|default")
	dsFlag := flag.String("dataset", "imageclef", "imageclef|chic2012|chic2013")
	nFlag := flag.Int("n", 3, "number of queries to inspect")
	topFlag := flag.Int("top", 10, "results to show per run")
	explainFlag := flag.Bool("explain", false, "print per-leaf score explanations for the top result of SQE_T&S")
	dotFlag := flag.String("dot", "", "write each inspected query's T&S query graph to <dir>/<queryID>.dot (Graphviz; reproduces the paper's Figure 4 drawings)")
	flag.Parse()

	scale := dataset.ScaleDefault
	if *scaleFlag == "small" {
		scale = dataset.ScaleSmall
	}
	suite, err := experiments.NewSuite(scale)
	if err != nil {
		log.Fatal(err)
	}
	var inst *dataset.Instance
	switch *dsFlag {
	case "imageclef":
		inst = suite.ImageCLEF
	case "chic2012":
		inst = suite.CHiC2012
	case "chic2013":
		inst = suite.CHiC2013
	default:
		log.Fatalf("unknown -dataset %q", *dsFlag)
	}
	r := suite.NewRunner(inst)
	g := suite.World.Graph

	titles := func(ids []kb.NodeID) string {
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = fmt.Sprintf("%q", g.Title(id))
		}
		return strings.Join(parts, ", ")
	}
	showRun := func(q *dataset.Query, name string, node search.Node) {
		res := r.Rank(q, *topFlag, nil, node)
		rel := inst.Qrels[q.ID]
		marks := make([]string, len(res))
		hits := 0
		for i, d := range res {
			if rel[d.Name] {
				marks[i] = "R"
				hits++
			} else {
				marks[i] = "."
			}
		}
		fmt.Printf("  %-8s top%d=[%s] (%d rel)\n", name, *topFlag, strings.Join(marks, ""), hits)
	}

	for qi := 0; qi < *nFlag && qi < len(inst.Queries); qi++ {
		q := &inst.Queries[qi]
		fmt.Printf("%s: %q  topic=%d rel=%d mentionP=%.2f aliasP=%.2f\n",
			q.ID, q.Text, q.Topic, q.NumRelevant, q.TitleMentionProb, q.AliasDocProb)
		fmt.Printf("  entities (M): %s\n", titles(q.Entities))
		fmt.Printf("  entities (A): %s\n", titles(r.Linker.LinkArticles(q.Text)))
		for _, set := range []motif.Set{motif.SetT, motif.SetTS, motif.SetS} {
			qg := r.Expander.BuildQueryGraph(q.Entities, set)
			fmt.Printf("  motifs %-4s: %d features: %s\n", set, len(qg.Features), r.Expander.DescribeGraph(qg, 8))
		}
		gt := inst.GroundTruth[q.ID]
		fmt.Printf("  ground truth (%d): ", len(gt))
		for i, f := range gt {
			if i >= 8 {
				fmt.Printf(" …")
				break
			}
			fmt.Printf(" %q(%.0f)", g.Title(f.Article), f.Weight)
		}
		fmt.Println()
		showRun(q, "QL_Q", r.Expander.QLQuery(q.Text))
		showRun(q, "QL_E", r.Expander.QLEntities(q.Entities))
		showRun(q, "QL_Q&E", r.Expander.QLQueryEntities(q.Text, q.Entities))
		qgT := r.Expander.BuildQueryGraph(q.Entities, motif.SetT)
		showRun(q, "SQE_T", r.Expander.BuildQuery(q.Text, qgT))
		qgTS := r.Expander.BuildQueryGraph(q.Entities, motif.SetTS)
		showRun(q, "SQE_T&S", r.Expander.BuildQuery(q.Text, qgTS))
		ub := core.GroundTruthGraph(q.Entities, gt)
		showRun(q, "SQE_UB", r.Expander.BuildQuery(q.Text, ub))
		if *explainFlag {
			node := r.Expander.BuildQuery(q.Text, qgTS)
			if top := r.Rank(q, 1, nil, node); len(top) > 0 {
				fmt.Printf("  explanation of SQE_T&S top result:\n%s", indent(r.Searcher.Explain(node, top[0].Doc).String()))
			}
		}
		if *dotFlag != "" {
			if err := os.MkdirAll(*dotFlag, 0o755); err != nil {
				log.Fatal(err)
			}
			// Induce the query graph plus the categories that justify
			// the motifs — the node set the paper draws in Figure 4.
			nodes := append([]kb.NodeID{}, q.Entities...)
			nodes = append(nodes, qgTS.ExpansionArticles()...)
			allowed := motif.InducedNodes(g, q.Entities[0], qgTS.ExpansionArticles())
			for n := range allowed {
				nodes = append(nodes, n)
			}
			path := filepath.Join(*dotFlag, q.ID+".dot")
			df, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := kb.WriteDOT(df, g, nodes, q.Entities); err != nil {
				log.Fatal(err)
			}
			if err := df.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  wrote %s\n", path)
		}
		fmt.Println()
	}
}
