package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
)

// updateRuns rewrites the pinned run hashes instead of diffing against
// them: go test -run TestRunsGolden -update ./internal/experiments
var updateRuns = flag.Bool("update", false, "rewrite testdata/runs_small.golden from current output")

// TestRunsGolden pins the rankings behind every paper table at
// ScaleSmall: one line per (table, dataset, row) with the SHA-256 of the
// row's ranked document names, query by query in query order. A change
// to how a run is evaluated or spliced that moves one document of one
// query shows up as a diff here, even where the precision rows round to
// the same value.
func TestRunsGolden(t *testing.T) {
	s := smallSuite(t)
	// One block of lines per (experiment, dataset), in the order the
	// experiments run; a table scores its rows in map order, so each
	// block is sorted by row.
	var blocks [][]string
	var last string
	s.observe = func(experiment string, inst *dataset.Instance, row string, run eval.Run) {
		if key := experiment + "\t" + inst.Name; key != last {
			blocks, last = append(blocks, nil), key
		}
		b := &blocks[len(blocks)-1]
		*b = append(*b, fmt.Sprintf("%s\t%s\t%s\n", last, row, runHash(inst, run)))
	}
	defer func() { s.observe = nil }()
	Figure2(s)
	Table1(s)
	for _, inst := range s.Instances() {
		Table3(s, inst, Table2(s, inst))
		Ablations(s, inst)
		ModelComparison(s, inst)
	}
	var sb strings.Builder
	for _, b := range blocks {
		slices.Sort(b)
		sb.WriteString(strings.Join(b, ""))
	}
	got := sb.String()

	path := filepath.Join("testdata", "runs_small.golden")
	if *updateRuns {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}

// runHash is the SHA-256 of run's ranked document names over inst's
// queries in order, one line per query.
func runHash(inst *dataset.Instance, run eval.Run) string {
	h := sha256.New()
	for _, q := range inst.Queries {
		fmt.Fprintf(h, "%s\t%s\n", q.ID, strings.Join(run[q.ID], " "))
	}
	return hex.EncodeToString(h.Sum(nil))
}
