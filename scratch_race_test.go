package sqe

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/index"
)

// TestScratchPoolConcurrentDoStress hammers the pooled evaluation
// scratch from many goroutines mixing engines with different shard
// counts over a streaming (FormatV2 mmap) index, different K (scratch
// shapes of different sizes), and deadlines that expire mid-query. Under
// -race (the Makefile `race` target) this is the gate proving no scratch
// state escapes between requests: every completed request must be
// byte-identical to its single-threaded expectation, no matter what
// queries — or cancellations — the other goroutines interleave.
func TestScratchPoolConcurrentDoStress(t *testing.T) {
	e := demo(t)
	mem := e.Engine.Index()
	v2Path := filepath.Join(t.TempDir(), "ix.v2")
	if err := index.WriteFile(v2Path, mem, index.FormatV2); err != nil {
		t.Fatal(err)
	}
	v2, err := index.Open(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()

	// S=1 shares the v2 index and S>1 cuts it into v2 shard images, so
	// their leaves stream per block; the memory engine mixes in the
	// unsharded eager path. All four drain the same global scratch pool.
	engines := []*Engine{
		NewEngine(e.Engine.Graph(), v2, WithShards(1)),
		NewEngine(e.Engine.Graph(), v2, WithShards(2)),
		NewEngine(e.Engine.Graph(), v2, WithShards(4)),
		NewEngine(e.Engine.Graph(), mem),
	}
	queries := e.Queries
	reqFor := func(qi, shape int) SearchRequest {
		q := queries[qi%len(queries)]
		switch shape % 3 {
		case 0: // expanded SQE_C, small k
			return SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, K: 5}
		case 1: // single set, large k — a much bigger heap/scratch shape
			return SearchRequest{Query: q.Text, EntityTitles: q.EntityTitles, MotifSet: MotifTS, K: 100, CollectStats: true}
		default: // raw baseline, few leaves
			return SearchRequest{Query: q.Text, K: 20, Baseline: true}
		}
	}

	// Single-threaded expectations per (engine, query, shape).
	const shapes = 3
	want := make([][]*SearchResponse, len(engines))
	for ei, eng := range engines {
		want[ei] = make([]*SearchResponse, len(queries)*shapes)
		for qi := range queries {
			for s := 0; s < shapes; s++ {
				resp, err := eng.Do(context.Background(), reqFor(qi, s))
				if err != nil {
					t.Fatalf("engine %d q %d shape %d: %v", ei, qi, s, err)
				}
				want[ei][qi*shapes+s] = resp
			}
		}
	}

	const goroutines = 12
	iters := 40
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				ei := (w + it) % len(engines)
				qi := (w * 7 / 3 * it) % len(queries)
				s := (w + it) % shapes
				req := reqFor(qi, s)
				ctx := context.Background()
				var cancel context.CancelFunc
				if it%5 == 4 {
					// A deadline short enough to sometimes expire mid-
					// evaluation: the request must either fail with the
					// context error (scratch returned on the cancel path)
					// or complete byte-identically — never a third thing.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+w*it%200)*time.Microsecond)
				}
				got, err := engines[ei].Do(ctx, req)
				if cancel != nil {
					cancel()
				}
				if err != nil {
					if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
						continue
					}
					t.Errorf("worker %d engine %d q %d shape %d: %v", w, ei, qi, s, err)
					return
				}
				exp := want[ei][qi*shapes+s]
				if !reflect.DeepEqual(got.Results, exp.Results) {
					t.Errorf("worker %d engine %d q %d shape %d: results diverge from single-threaded run", w, ei, qi, s)
					return
				}
				if req.CollectStats {
					// Deterministic counters must survive pooling too.
					if got.Stats == nil ||
						got.Stats.Search.CandidatesExamined != exp.Stats.Search.CandidatesExamined ||
						got.Stats.Search.PostingsAdvanced != exp.Stats.Search.PostingsAdvanced ||
						got.Stats.Search.BlocksDecoded != exp.Stats.Search.BlocksDecoded {
						t.Errorf("worker %d engine %d q %d: counters diverge under concurrency", w, ei, qi)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := v2.Err(); err != nil {
		t.Fatalf("streaming under stress recorded an index error: %v", err)
	}
}
