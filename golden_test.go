package sqe

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// updateGolden rewrites the golden retrieval files instead of diffing
// against them: go test -run TestGoldenRetrieval -update ./...
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files from current output")

// The golden corpus pins end-to-end retrieval output — exact ranking
// and exact scores — for the raw and the expanded query shape, over the
// deterministic demo fixture. Scores are serialised as
// hex floats (strconv 'x'), so the files round-trip float64 bit
// patterns exactly: any change to tokenisation, smoothing, pruning,
// sharded merging or splicing that moves a single bit shows up as a
// golden diff, reviewable in the PR that caused it.
type goldenFile struct {
	Model   string        `json:"model"`
	Mode    string        `json:"mode"`
	K       int           `json:"k"`
	Queries []goldenQuery `json:"queries"`
}

type goldenQuery struct {
	Query   string         `json:"query"`
	Results []goldenResult `json:"results"`
}

type goldenResult struct {
	Name  string `json:"name"`
	Score string `json:"score"` // hex float64, e.g. -0x1.91f1bcp+03
}

func goldenResults(rs []Result) []goldenResult {
	out := make([]goldenResult, len(rs))
	for i, r := range rs {
		out[i] = goldenResult{Name: r.Name, Score: strconv.FormatFloat(r.Score, 'x', -1, 64)}
	}
	return out
}

// goldenModel names the golden files' retrieval model, Dirichlet.
const goldenModel = "dirichlet"

func TestGoldenRetrieval(t *testing.T) {
	const k = 10
	// Two engines over the identical fixture: unsharded and 4-way
	// sharded. Both are diffed against the same golden file — shard
	// parity is part of the pinned contract (the cross-shard statistics
	// override makes sharded scores bit-identical to unsharded).
	modes := []struct {
		name string
		req  func(q DemoQuery) SearchRequest
	}{
		{"raw", func(q DemoQuery) SearchRequest {
			return SearchRequest{Query: q.Text, K: k, Baseline: true}
		}},
		{"expanded", func(q DemoQuery) SearchRequest {
			return SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: k}
		}},
	}

	ctx := context.Background()
	// Demo generation is deterministic, so both environments see the
	// same corpus and queries.
	env1, err := GenerateDemo(DemoSmall)
	if err != nil {
		t.Fatalf("GenerateDemo: %v", err)
	}
	env4, err := GenerateDemo(DemoSmall, WithShards(4))
	if err != nil {
		t.Fatalf("GenerateDemo shards=4: %v", err)
	}
	queries := env1.Queries
	if len(queries) > 3 {
		queries = queries[:3]
	}
	for _, mode := range modes {
		t.Run(goldenModel+"/"+mode.name, func(t *testing.T) {
			got := goldenFile{Model: goldenModel, Mode: mode.name, K: k}
			for _, q := range queries {
				req := mode.req(q)
				r1, err := env1.Engine.Do(ctx, req)
				if err != nil {
					t.Fatalf("unsharded %q: %v", q.Text, err)
				}
				r4, err := env4.Engine.Do(ctx, req)
				if err != nil {
					t.Fatalf("sharded %q: %v", q.Text, err)
				}
				g1, g4 := goldenResults(r1.Results), goldenResults(r4.Results)
				if err := diffGolden(g1, g4); err != nil {
					t.Fatalf("shards=4 diverges from shards=1 on %q: %v", q.Text, err)
				}
				got.Queries = append(got.Queries, goldenQuery{Query: q.Text, Results: g1})
			}

			path := filepath.Join("testdata", "golden", goldenModel+"_"+mode.name+".json")
			if *updateGolden {
				buf, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
			}
			var want goldenFile
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("corrupt golden %s: %v", path, err)
			}
			if want.K != got.K || len(want.Queries) != len(got.Queries) {
				t.Fatalf("golden %s shape changed: k=%d/%d queries=%d/%d (run -update if intended)",
					path, got.K, want.K, len(got.Queries), len(want.Queries))
			}
			for i := range want.Queries {
				if want.Queries[i].Query != got.Queries[i].Query {
					t.Fatalf("query %d is %q, golden has %q", i, got.Queries[i].Query, want.Queries[i].Query)
				}
				if err := diffGolden(want.Queries[i].Results, got.Queries[i].Results); err != nil {
					t.Errorf("%s, query %q: %v (run -update if the change is intended)",
						path, want.Queries[i].Query, err)
				}
			}
		})
	}
}

// diffGolden compares two rankings for exact equality — order, names
// and float64 bit patterns — and reports the first divergence.
func diffGolden(want, got []goldenResult) error {
	if len(want) != len(got) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("rank %d: got %s=%s, want %s=%s",
				i, got[i].Name, got[i].Score, want[i].Name, want[i].Score)
		}
	}
	return nil
}
