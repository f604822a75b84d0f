package sqe

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// survivors drops every document whose name is in deletes (matching
// tombstone semantics: all occurrences of the name die).
func survivors(docs []DemoDoc, deletes []string) []DemoDoc {
	dead := make(map[string]bool, len(deletes))
	for _, n := range deletes {
		dead[n] = true
	}
	out := make([]DemoDoc, 0, len(docs))
	for _, d := range docs {
		if !dead[d.Name] {
			out = append(out, d)
		}
	}
	return out
}

// TestSegmentedEngineMutationVisibility: results must track the
// document set as it changes — after deleting every doc ranked in a
// result page, none of them may appear in a re-run of the same query,
// and re-ingesting them restores the original ranking exactly.
func TestSegmentedEngineMutationVisibility(t *testing.T) {
	w := theWorld(t)
	env, docs := w.env, w.docs
	g := env.Engine.Graph()
	liveEng, _ := segmented(32, ingest(0, all))(t, w)
	q := env.Queries[0]
	req := SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 5}
	before, err := liveEng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Results) == 0 {
		t.Fatal("no results to delete")
	}
	byName := make(map[string]DemoDoc, len(docs))
	for _, d := range docs {
		byName[d.Name] = d
	}
	for _, r := range before.Results {
		if _, err := liveEng.Delete(r.Name); err != nil {
			t.Fatal(err)
		}
	}
	after, err := liveEng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	gone := make(map[string]bool)
	for _, r := range before.Results {
		gone[r.Name] = true
	}
	for _, r := range after.Results {
		if gone[r.Name] {
			t.Fatalf("deleted doc %q still ranked", r.Name)
		}
	}
	// Restore in original index order and compare against a monolithic
	// engine over the corpus with the restored docs appended at the end
	// (their new index positions).
	rest := survivors(docs, resultNames(before.Results))
	for _, r := range before.Results {
		d := byName[r.Name]
		if err := liveEng.Ingest(d.Name, d.Text); err != nil {
			t.Fatal(err)
		}
		rest = append(rest, d)
	}
	ref := NewEngine(g, monolithic(rest))
	want, err := ref.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := liveEng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Results, got.Results) {
		t.Fatal("post-reingest results diverge from monolithic over the same docs")
	}
}

// resultNames lists the names of a ranked result list.
func resultNames(rs []Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}

// TestSegmentedEngineRejectsPRF: PRF would silently run its feedback
// pass against the live engine's placeholder index, so Do must refuse
// it loudly.
func TestSegmentedEngineRejectsPRF(t *testing.T) {
	w := theWorld(t)
	liveEng, _ := segmented(4, ingest(0, 10))(t, w)
	q := w.env.Queries[0]
	_, err := liveEng.Do(context.Background(), SearchRequest{
		Query: q.Text, EntityTitles: q.EntityTitles, K: 5,
		PRF: &PRFConfig{FbDocs: 3, FbTerms: 5, OrigWeight: 0.5},
	})
	if err == nil {
		t.Fatal("PRF on a live engine succeeded; want rejection")
	}
}

// TestSegmentedGoldenRetrieval diffs the live engine against the same
// pinned golden corpus the monolithic and sharded engines answer to:
// after ingesting the full demo corpus (no deletes), the raw and the
// expanded leg must reproduce testdata/golden byte-for-byte.
func TestSegmentedGoldenRetrieval(t *testing.T) {
	const k = 10
	w := theWorld(t)
	liveEng, _ := segmented(32, ingest(0, all))(t, w)
	queries := w.env.Queries
	if len(queries) > 3 {
		queries = queries[:3]
	}
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
	for _, mode := range modes {
		path := filepath.Join("testdata", "golden", goldenModel+"_"+mode.name+".json")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden %s: %v", path, err)
		}
		var want goldenFile
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("corrupt golden %s: %v", path, err)
		}
		for i, q := range queries {
			if i >= len(want.Queries) {
				break
			}
			resp, err := liveEng.Do(context.Background(), mode.req(q))
			if err != nil {
				t.Fatalf("%s %q: %v", mode.name, q.Text, err)
			}
			if want.Queries[i].Query != q.Text {
				t.Fatalf("golden %s query %d is %q, demo has %q", path, i, want.Queries[i].Query, q.Text)
			}
			if err := diffGolden(want.Queries[i].Results, goldenResults(resp.Results)); err != nil {
				t.Errorf("%s, query %q: live engine diverges from golden: %v", path, q.Text, err)
			}
		}
	}
}
