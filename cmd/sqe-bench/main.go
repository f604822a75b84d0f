// Command sqe-bench regenerates every table and figure of the paper's
// evaluation section against the synthetic reproduction environment.
//
// Usage:
//
//	sqe-bench [-scale small|default] [-trec dir]
//	          [-exp all|fig2,tab1,fig5,tab2,fig6,tab3,tab4,stages,models,ablation,mining,summary]
//
// How fast the system serves is measured by bench/ (see bench/README.md),
// not here.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
)

// experimentNames are the values -exp accepts besides "all".
var experimentNames = []string{"fig2", "tab1", "fig5", "tab2", "fig6", "tab3", "tab4",
	"stages", "models", "ablation", "mining", "summary"}

// parseExperiments turns an -exp value — names separated by commas or
// spaces — into a set. An unknown name is an error, not an experiment
// that silently never runs.
func parseExperiments(spec string) (map[string]bool, error) {
	set := make(map[string]bool)
	for _, name := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ' ' }) {
		if name != "all" && !slices.Contains(experimentNames, name) {
			return nil, fmt.Errorf("unknown experiment %q (valid: all, %s)", name, strings.Join(experimentNames, ", "))
		}
		set[name] = true
	}
	return set, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sqe-bench: ")
	scaleFlag := flag.String("scale", "default", "environment scale: small|default")
	expFlag := flag.String("exp", "all", "experiments to run: all, or a comma-separated list of "+strings.Join(experimentNames, ","))
	trecFlag := flag.String("trec", "", "directory to export TREC qrels/run files into")
	flag.Parse()

	selected, err := parseExperiments(*expFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sqe-bench: -exp: %v\n", err)
		os.Exit(2)
	}
	want := func(name string) bool { return selected["all"] || selected[name] }

	scale := dataset.ScaleDefault
	switch *scaleFlag {
	case "default":
	case "small":
		scale = dataset.ScaleSmall
	default:
		log.Fatalf("unknown -scale %q", *scaleFlag)
	}

	start := time.Now()
	suite, err := experiments.NewSuite(scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("environment: %s\n", suite.World.Describe())
	for _, inst := range suite.Instances() {
		fmt.Printf("dataset %-12s: %s; %d queries, avg %.1f relevant/query\n",
			inst.Name, inst.Index, len(inst.Queries), inst.Qrels.AvgRelevant())
	}
	fmt.Printf("generated in %v\n\n", time.Since(start).Round(time.Millisecond))

	var t1 *experiments.Table1Result
	if want("tab1") || want("fig5") {
		t1 = experiments.Table1(suite)
	}
	if want("fig2") {
		fmt.Println(experiments.Figure2(suite))
	}
	if want("tab1") {
		fmt.Println(t1.Table.String())
		fmt.Printf("SQE vs upper bound: worst %.2f%%, average %.2f%%\n\n", t1.UBRatioWorst*100, t1.UBRatioAvg*100)
	}
	if want("fig5") {
		fmt.Println(experiments.Figure5(t1))
	}
	var t2s []*experiments.Table2Result
	if want("tab2") || want("fig6") || want("tab3") {
		for _, inst := range suite.Instances() {
			t2s = append(t2s, experiments.Table2(suite, inst))
		}
	}
	if want("tab2") {
		for _, t2 := range t2s {
			fmt.Println(t2.Table.String())
		}
	}
	if want("fig6") {
		for _, t2 := range t2s {
			fmt.Println(experiments.Figure6(t2))
		}
	}
	if want("tab3") {
		for i, inst := range suite.Instances() {
			fmt.Println(experiments.Table3(suite, inst, t2s[i]).Table.String())
		}
	}
	if want("tab4") {
		fmt.Println(experiments.Table4(suite))
	}
	if want("stages") {
		// See README "Reading the stage timings".
		for _, inst := range suite.Instances() {
			fmt.Println(experiments.StageProfile(suite, inst))
		}
	}
	if want("models") {
		fmt.Println(experiments.ModelComparison(suite, suite.ImageCLEF))
	}
	if want("ablation") {
		fmt.Println(experiments.Ablations(suite, suite.ImageCLEF).Table.String())
		fmt.Println(experiments.MuSweep(suite, suite.ImageCLEF, []float64{100, 500, 1000, 2500, 5000}))
	}
	if want("mining") {
		cross, err := experiments.CrossKBMining(suite, scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(cross)
	}
	if want("summary") {
		for _, inst := range suite.Instances() {
			fmt.Println(experiments.SummaryMetrics(suite, inst))
		}
		if len(t2s) > 0 {
			fmt.Println(experiments.SigMatrix(t2s[0], 10))
		}
	}
	if *trecFlag != "" {
		if err := os.MkdirAll(*trecFlag, 0o755); err != nil {
			log.Fatal(err)
		}
		files, err := experiments.ExportTREC(suite, *trecFlag)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d TREC files to %s\n", len(files), *trecFlag)
	}
	fmt.Fprintf(os.Stderr, "total wall time %v\n", time.Since(start).Round(time.Millisecond))
}
