package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/motif"
	"repro/internal/search"
)

// ShardBenchRow is one shard count's measurement.
type ShardBenchRow struct {
	Shards    int     `json:"shards"`
	NsPerQry  float64 `json:"ns_per_query"`
	Speedup   float64 `json:"speedup_vs_1"`
	Identical bool    `json:"identical_to_unsharded"`
}

// ShardBenchResult reports sharded-retrieval throughput on the fully
// expanded SQE_T&S query workload of one dataset instance.
//
// GOMAXPROCS is part of the result on purpose: shard fan-out buys
// wall-clock only when the runtime has cores to spread the shards over.
// On a single-core runner every shard count serialises onto one thread
// and Speedup hovers around (slightly below) 1.0 from coordination
// overhead — report the numbers honestly rather than asserting a local
// speedup.
type ShardBenchResult struct {
	Dataset    string          `json:"dataset"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	K          int             `json:"k"`
	Reps       int             `json:"reps"`
	Queries    int             `json:"queries"`
	Rows       []ShardBenchRow `json:"rows"`
}

// ShardBench times top-k retrieval of every query's expanded SQE_T&S
// form at each shard count, reps passes per count. Shard count 1 (the
// plain unsharded Searcher) is always measured first as the speedup
// baseline, whether or not it appears in shardCounts; every sharded
// configuration is also checked for bit-identical rankings against it.
func ShardBench(s *Suite, inst *dataset.Instance, shardCounts []int, k, reps int) *ShardBenchResult {
	if k <= 0 {
		k = 10
	}
	if reps <= 0 {
		reps = 3
	}
	r := s.NewRunner(inst)
	queries := inst.Queries
	nodes := make([]search.Node, len(queries))
	for qi := range queries {
		q := &queries[qi]
		qg := r.Expander.BuildQueryGraph(r.Entities(q, true), motif.SetTS)
		nodes[qi] = r.Expander.BuildQuery(q.Text, qg)
	}

	timeAll := func(run func(node search.Node) []search.Result) (float64, [][]search.Result) {
		// One warm pass populates caches and captures the rankings for
		// the identity check; the timed passes follow.
		got := make([][]search.Result, len(nodes))
		for i, n := range nodes {
			got[i] = run(n)
		}
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			for _, n := range nodes {
				_ = run(n)
			}
		}
		total := float64(time.Since(start))
		return total / float64(reps*len(nodes)), got
	}

	baseNs, baseRes := timeAll(func(n search.Node) []search.Result {
		return r.Searcher.Search(n, k)
	})

	out := &ShardBenchResult{
		Dataset:    inst.Name,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		K:          k,
		Reps:       reps,
		Queries:    len(queries),
		Rows:       []ShardBenchRow{{Shards: 1, NsPerQry: baseNs, Speedup: 1, Identical: true}},
	}
	for _, sc := range shardCounts {
		if sc <= 1 {
			continue
		}
		ss := search.NewShardedSearcher(index.NewSharded(inst.Index, sc))
		ns, res := timeAll(func(n search.Node) []search.Result {
			ev, _ := ss.Evaluate(context.Background(), n, k, search.EvalOptions{})
			return ev.Results
		})
		identical := true
		for i := range res {
			if len(res[i]) != len(baseRes[i]) {
				identical = false
				break
			}
			for j := range res[i] {
				if res[i][j] != baseRes[i][j] {
					identical = false
					break
				}
			}
		}
		out.Rows = append(out.Rows, ShardBenchRow{
			Shards: sc, NsPerQry: ns, Speedup: baseNs / ns, Identical: identical,
		})
	}
	return out
}

// JSON renders the result as indented JSON (the BENCH_shards.json
// artifact written by `make bench-shards`).
func (r *ShardBenchResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

func (r *ShardBenchResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sharded retrieval, %s (%d queries, k=%d, %d reps, GOMAXPROCS=%d):\n",
		r.Dataset, r.Queries, r.K, r.Reps, r.GOMAXPROCS)
	for _, row := range r.Rows {
		mark := "bit-identical"
		if !row.Identical {
			mark = "RANKINGS DIVERGED"
		}
		fmt.Fprintf(&sb, "  S=%-2d %10.0f ns/query  speedup %.2fx  %s\n",
			row.Shards, row.NsPerQry, row.Speedup, mark)
	}
	return sb.String()
}
