package sqe

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/index"
)

// TestEngineFormatParity is the cross-format differential gate: the same
// corpus served from memory, from a FormatV1 file and from a FormatV2
// file (mmap'd, lazily decoded) must produce bit-identical rankings and
// scores for every pipeline configuration — all three retrieval models,
// raw and expanded queries, shard counts 1/2/4. Pruning stays on
// everywhere, so the v2 leg also exercises the pruned evaluator's
// gallops through streaming cursors and the on-disk block directory.
func TestEngineFormatParity(t *testing.T) {
	e := demo(t)
	dir := t.TempDir()
	mem := e.Engine.Index()

	v1Path := filepath.Join(dir, "ix.v1")
	if err := index.WriteFile(v1Path, mem, index.FormatV1); err != nil {
		t.Fatal(err)
	}
	v2Path := filepath.Join(dir, "ix.v2")
	if err := index.WriteFile(v2Path, mem, index.FormatV2); err != nil {
		t.Fatal(err)
	}
	v1, err := index.Open(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	v2, err := index.Open(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()

	models := []struct {
		name string
		opts []Option
	}{
		{"dirichlet", nil},
		{"jelinek-mercer", []Option{WithRetrievalModel(ModelJelinekMercer, ModelParams{Lambda: 0.4})}},
		{"bm25", []Option{WithRetrievalModel(ModelBM25, ModelParams{})}},
	}
	for _, m := range models {
		for _, s := range []int{1, 2, 4} {
			mk := func(ix *Index) *Engine {
				return NewEngine(e.Engine.Graph(), ix, append([]Option{WithShards(s)}, m.opts...)...)
			}
			engines := map[string]*Engine{"v1": mk(v1), "v2": mk(v2)}
			ref := mk(mem)
			for _, q := range e.Queries {
				for _, req := range []SearchRequest{
					{Query: q.Text, EntityTitles: q.EntityTitles, K: 10},                    // SQE_C, expanded
					{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifTS, K: 25}, // single set, expanded
					{Query: q.Text, K: 25, Baseline: true},                                  // raw
				} {
					want, err := ref.Do(context.Background(), req)
					if err != nil {
						t.Fatalf("%s S=%d %s: memory: %v", m.name, s, q.ID, err)
					}
					for fname, fe := range engines {
						got, err := fe.Do(context.Background(), req)
						if err != nil {
							t.Fatalf("%s S=%d %s: %s: %v", m.name, s, q.ID, fname, err)
						}
						if !reflect.DeepEqual(want.Results, got.Results) {
							t.Fatalf("%s S=%d %s k=%d set=%v baseline=%v: %s results diverge from memory",
								m.name, s, q.ID, req.K, req.MotifSet, req.Baseline, fname)
						}
					}
				}
			}
		}
	}
	if err := v2.Err(); err != nil {
		t.Fatalf("v2 lazy decode recorded an error: %v", err)
	}
}
