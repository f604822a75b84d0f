package serve

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	sqe "repro"
	"repro/internal/fault"
)

// handleMetrics renders the server's counters in the Prometheus text
// exposition format (hand-rendered: the repo takes no dependencies, and
// the format is a few lines of fmt). Three families:
//
//   - sqe_http_*      — the serving layer (requests, errors, shedding)
//   - sqe_pipeline_*  — aggregated PipelineStats from every served query
//     (the same per-stage counters cmd/sqe-bench reports per run)
//   - sqe_expansion_cache_* — the engine's expansion cache, if enabled
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ps := s.pipeline
	s.mu.Unlock()

	var sb strings.Builder
	counter := func(name, help string) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	counter("sqe_http_requests_total", "HTTP requests received, by endpoint.")
	fmt.Fprintf(&sb, "sqe_http_requests_total{endpoint=\"search\"} %d\n", s.search.requests.Load())
	fmt.Fprintf(&sb, "sqe_http_requests_total{endpoint=\"expand\"} %d\n", s.expand.requests.Load())
	fmt.Fprintf(&sb, "sqe_http_requests_total{endpoint=\"baseline\"} %d\n", s.baseline.requests.Load())
	fmt.Fprintf(&sb, "sqe_http_requests_total{endpoint=\"ingest\"} %d\n", s.ingest.requests.Load())
	counter("sqe_http_errors_total", "HTTP requests answered with a non-200 status, by endpoint.")
	fmt.Fprintf(&sb, "sqe_http_errors_total{endpoint=\"search\"} %d\n", s.search.errors.Load())
	fmt.Fprintf(&sb, "sqe_http_errors_total{endpoint=\"expand\"} %d\n", s.expand.errors.Load())
	fmt.Fprintf(&sb, "sqe_http_errors_total{endpoint=\"baseline\"} %d\n", s.baseline.errors.Load())
	fmt.Fprintf(&sb, "sqe_http_errors_total{endpoint=\"ingest\"} %d\n", s.ingest.errors.Load())
	counter("sqe_http_shed_total", "Requests shed with 429 by admission control.")
	fmt.Fprintf(&sb, "sqe_http_shed_total %d\n", s.shed.Load())
	counter("sqe_http_queue_waits_total", "Requests that waited in the admission queue for an in-flight slot.")
	fmt.Fprintf(&sb, "sqe_http_queue_waits_total %d\n", s.queueWaits.Load())
	counter("sqe_http_queue_timeouts_total", "Queued requests shed after waiting QueueTimeout without a slot.")
	fmt.Fprintf(&sb, "sqe_http_queue_timeouts_total %d\n", s.queueTimeouts.Load())
	counter("sqe_http_timeouts_total", "Requests that hit the per-request deadline (504).")
	fmt.Fprintf(&sb, "sqe_http_timeouts_total %d\n", s.timeouts.Load())
	gauge("sqe_http_in_flight", "Work requests currently evaluating.")
	fmt.Fprintf(&sb, "sqe_http_in_flight %d\n", s.inFlight.Load())
	gauge("sqe_http_queued", "Work requests currently waiting in the admission queue.")
	fmt.Fprintf(&sb, "sqe_http_queued %d\n", s.queueLen.Load())
	gauge("sqe_uptime_seconds", "Seconds since the server started.")
	fmt.Fprintf(&sb, "sqe_uptime_seconds %g\n", time.Since(s.start).Seconds())

	counter("sqe_degraded_responses_total", "200 responses whose results were degraded (shards or runs dropped, expansion replaced).")
	fmt.Fprintf(&sb, "sqe_degraded_responses_total %d\n", s.degraded.Load())
	counter("sqe_degraded_dropped_shards_total", "Shard results missing from partial merges.")
	fmt.Fprintf(&sb, "sqe_degraded_dropped_shards_total %d\n", s.droppedShards.Load())
	counter("sqe_degraded_dropped_runs_total", "SQE_C run lists missing from splices.")
	fmt.Fprintf(&sb, "sqe_degraded_dropped_runs_total %d\n", s.droppedRuns.Load())
	counter("sqe_retries_total", "Pipeline stage re-runs after transient faults.")
	fmt.Fprintf(&sb, "sqe_retries_total %d\n", s.degRetries.Load())
	counter("sqe_expansion_fallbacks_total", "Motif expansions replaced by the plain unexpanded query.")
	fmt.Fprintf(&sb, "sqe_expansion_fallbacks_total %d\n", s.degFallbacks.Load())

	// Fault-injection counters, present only while a chaos registry is
	// armed (fault.Arm); production serves without one and omits the
	// family entirely.
	if reg := fault.Armed(); reg != nil {
		stats := reg.Stats()
		counter("sqe_fault_injected_total", "Faults (errors + panics) injected by the armed fault registry, by point.")
		for _, p := range fault.Points() {
			if st, ok := stats[p]; ok {
				fmt.Fprintf(&sb, "sqe_fault_injected_total{point=%q} %d\n", string(p), st.Faults())
			}
		}
		counter("sqe_fault_delays_total", "Latency injections by the armed fault registry, by point.")
		for _, p := range fault.Points() {
			if st, ok := stats[p]; ok {
				fmt.Fprintf(&sb, "sqe_fault_delays_total{point=%q} %d\n", string(p), st.Delays)
			}
		}
	}

	counter("sqe_pipeline_queries_total", "SQE pipeline executions served.")
	fmt.Fprintf(&sb, "sqe_pipeline_queries_total %d\n", ps.Queries)
	counter("sqe_pipeline_retrievals_total", "Evaluator passes (SQE_C: one on a single index, three on a partitioned engine).")
	fmt.Fprintf(&sb, "sqe_pipeline_retrievals_total %d\n", ps.Retrievals)
	counter("sqe_pipeline_features_total", "Expansion features produced by motif search.")
	fmt.Fprintf(&sb, "sqe_pipeline_features_total %d\n", ps.Features)
	counter("sqe_pipeline_stage_seconds_total", "Cumulative wall-clock per pipeline stage.")
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"entity_link", ps.Stages.EntityLink},
		{"motif_search", ps.Stages.MotifSearch},
		{"query_build", ps.Stages.QueryBuild},
		{"retrieval", ps.Stages.Retrieval},
	} {
		fmt.Fprintf(&sb, "sqe_pipeline_stage_seconds_total{stage=%q} %g\n", st.name, st.d.Seconds())
	}

	counter("sqe_search_leaves_total", "Flattened query leaves scored.")
	fmt.Fprintf(&sb, "sqe_search_leaves_total %d\n", ps.Search.Leaves)
	counter("sqe_search_candidates_examined_total", "Distinct documents scored.")
	fmt.Fprintf(&sb, "sqe_search_candidates_examined_total %d\n", ps.Search.CandidatesExamined)
	counter("sqe_search_postings_advanced_total", "Posting-cursor advances across all leaves.")
	fmt.Fprintf(&sb, "sqe_search_postings_advanced_total %d\n", ps.Search.PostingsAdvanced)
	counter("sqe_search_docs_skipped_total", "Postings entries skipped by score-safe dynamic pruning without scoring their documents.")
	fmt.Fprintf(&sb, "sqe_search_docs_skipped_total %d\n", ps.Search.DocsSkipped)
	counter("sqe_search_bound_evaluations_total", "Score-bound tests against the top-k threshold (per-candidate checks plus leaf re-partitions).")
	fmt.Fprintf(&sb, "sqe_search_bound_evaluations_total %d\n", ps.Search.BoundEvaluations)
	counter("sqe_search_blocks_decoded_total", "Postings blocks the streaming cursors decoded (v2-backed indexes only).")
	fmt.Fprintf(&sb, "sqe_search_blocks_decoded_total %d\n", ps.Search.BlocksDecoded)
	counter("sqe_search_blocks_total", "Postings blocks held by the terms the streaming cursors walked; decoded/total is the decoded-block share.")
	fmt.Fprintf(&sb, "sqe_search_blocks_total %d\n", ps.Search.BlocksTotal)
	counter("sqe_search_positional_hits_total", "Phrase/window leaves found already resolved in an index's positional memo.")
	fmt.Fprintf(&sb, "sqe_search_positional_hits_total %d\n", ps.Search.PositionalHits)
	counter("sqe_search_positional_misses_total", "Phrase/window leaves whose positional intersection the retrieval had to run.")
	fmt.Fprintf(&sb, "sqe_search_positional_misses_total %d\n", ps.Search.PositionalMisses)
	counter("sqe_search_heap_pushes_total", "Insertions into the bounded top-k heap.")
	fmt.Fprintf(&sb, "sqe_search_heap_pushes_total %d\n", ps.Search.HeapPushes)
	counter("sqe_search_heap_evictions_total", "Candidates that displaced the current k-th best.")
	fmt.Fprintf(&sb, "sqe_search_heap_evictions_total %d\n", ps.Search.HeapEvictions)

	// Per-shard evaluator breakdown; present only on sharded engines.
	// Each family emits its series in ascending shard index — one family
	// at a time, never interleaved across families — so successive
	// scrapes diff line-for-line deterministically.
	if len(ps.Search.Shards) > 0 {
		shardFamily := func(name, help string, value func(sh sqe.ShardSearchStats) string) {
			counter(name, help)
			for i := 0; i < len(ps.Search.Shards); i++ {
				fmt.Fprintf(&sb, "%s{shard=\"%d\"} %s\n", name, i, value(ps.Search.Shards[i]))
			}
		}
		shardFamily("sqe_search_shard_seconds_total", "Cumulative evaluation wall-clock per index shard.",
			func(sh sqe.ShardSearchStats) string { return fmt.Sprintf("%g", sh.Elapsed.Seconds()) })
		shardFamily("sqe_search_shard_candidates_examined_total", "Distinct documents scored per index shard.",
			func(sh sqe.ShardSearchStats) string { return fmt.Sprintf("%d", sh.CandidatesExamined) })
		shardFamily("sqe_search_shard_postings_advanced_total", "Posting-cursor advances per index shard.",
			func(sh sqe.ShardSearchStats) string { return fmt.Sprintf("%d", sh.PostingsAdvanced) })
		shardFamily("sqe_search_shard_docs_skipped_total", "Postings entries skipped by pruning per index shard.",
			func(sh sqe.ShardSearchStats) string { return fmt.Sprintf("%d", sh.DocsSkipped) })
	}

	// Live (segmented) index state; present only on engines built with
	// NewLiveEngine. The gauges mirror the /v1/ingest response fields so
	// operators can watch segment growth and tombstone accumulation (and
	// alert on a stuck compactor) without issuing work requests.
	if ls, ok := s.cfg.Engine.LiveStats(); ok {
		gauge("sqe_live_segments", "Committed on-disk segments of the live index.")
		fmt.Fprintf(&sb, "sqe_live_segments %d\n", ls.DiskSegments)
		gauge("sqe_live_buffer_docs", "Documents in the unflushed in-memory buffer.")
		fmt.Fprintf(&sb, "sqe_live_buffer_docs %d\n", ls.BufferDocs)
		gauge("sqe_live_docs", "Searchable (non-tombstoned) documents in the live index.")
		fmt.Fprintf(&sb, "sqe_live_docs %d\n", ls.LiveDocs)
		gauge("sqe_live_tombstones", "Deleted-but-not-yet-compacted documents.")
		fmt.Fprintf(&sb, "sqe_live_tombstones %d\n", ls.Tombstones)
		counter("sqe_live_ingested_total", "Documents ingested over the live index's lifetime.")
		fmt.Fprintf(&sb, "sqe_live_ingested_total %d\n", ls.Ingested)
		counter("sqe_live_deleted_total", "Documents deleted over the live index's lifetime.")
		fmt.Fprintf(&sb, "sqe_live_deleted_total %d\n", ls.Deleted)
		counter("sqe_live_flushes_total", "Buffer flushes committed to disk segments.")
		fmt.Fprintf(&sb, "sqe_live_flushes_total %d\n", ls.Flushes)
		counter("sqe_live_compactions_total", "Segment compactions completed.")
		fmt.Fprintf(&sb, "sqe_live_compactions_total %d\n", ls.Compactions)
		counter("sqe_live_manifest_commits_total", "Manifest commits (temp + fsync + rename): one per flush, compaction and delete batch.")
		fmt.Fprintf(&sb, "sqe_live_manifest_commits_total %d\n", ls.ManifestCommits)
		counter("sqe_live_merge_blocks_copied_total", "Postings blocks compactions copied from an input undecoded.")
		fmt.Fprintf(&sb, "sqe_live_merge_blocks_copied_total %d\n", ls.MergeBlocksCopied)
		counter("sqe_live_merge_blocks_spliced_total", "Postings blocks compactions wrote by extending an input's short last block in place.")
		fmt.Fprintf(&sb, "sqe_live_merge_blocks_spliced_total %d\n", ls.MergeBlocksSpliced)
		counter("sqe_live_merge_blocks_encoded_total", "Postings blocks compactions encoded from decoded postings.")
		fmt.Fprintf(&sb, "sqe_live_merge_blocks_encoded_total %d\n", ls.MergeBlocksEncoded)
	}

	if cs, ok := s.cfg.Engine.ExpansionCacheStats(); ok {
		counter("sqe_expansion_cache_hits_total", "Expansion cache hits.")
		fmt.Fprintf(&sb, "sqe_expansion_cache_hits_total %d\n", cs.Hits)
		counter("sqe_expansion_cache_misses_total", "Expansion cache misses.")
		fmt.Fprintf(&sb, "sqe_expansion_cache_misses_total %d\n", cs.Misses)
		counter("sqe_expansion_cache_evictions_total", "Expansion cache LRU evictions.")
		fmt.Fprintf(&sb, "sqe_expansion_cache_evictions_total %d\n", cs.Evictions)
		gauge("sqe_expansion_cache_entries", "Expansions currently cached.")
		fmt.Fprintf(&sb, "sqe_expansion_cache_entries %d\n", cs.Entries)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(sb.String()))
}

// Pipeline returns a copy of the aggregated pipeline stats served so far
// (what /metrics exports); useful for tests.
func (s *Server) Pipeline() sqe.PipelineStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pipeline
}
