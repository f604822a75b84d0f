package main

// metricDef is one reported number. The tables below are the schema
// BENCHMARK.json publishes; metrics_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a caller or an operator of the service sees,
// measured with tracing off, the same names on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.15},
	{"disk_bytes_per_doc", "B/doc", "lower", 0.02},
}

// perLayer are the single-layer metrics of the traced run, named
// <module>.<name>. They carry no bound.
var perLayer = []metricDef{
	{Name: "analysis.tokenize_ns_per_token", Unit: "ns", Better: "lower"},
	{Name: "entitylink.link_us", Unit: "us", Better: "lower"},
	{Name: "entitylink.mentions_per_query", Unit: "count", Better: "higher"},
	{Name: "kb.load_ms", Unit: "ms", Better: "lower"},
	{Name: "index.open_ms", Unit: "ms", Better: "lower"},
	{Name: "sqe.new_engine_ms", Unit: "ms", Better: "lower"},
	{Name: "motif.expand_us.T", Unit: "us", Better: "lower"},
	{Name: "motif.expand_us.TS", Unit: "us", Better: "lower"},
	{Name: "motif.expand_us.S", Unit: "us", Better: "lower"},
	{Name: "motif.matches_per_call", Unit: "count", Better: "higher"},
	{Name: "core.graph_cold_us", Unit: "us", Better: "lower"},
	{Name: "core.cache_hit_us", Unit: "us", Better: "lower"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.features_per_query", Unit: "count", Better: "higher"},
	{Name: "core.query_build_us", Unit: "us", Better: "lower"},
	{Name: "core.leaves_per_query", Unit: "count", Better: "lower"},
	{Name: "core.splice_us", Unit: "us", Better: "lower"},
	{Name: "search.retrieval_us", Unit: "us", Better: "lower"},
	{Name: "search.retrieval_us.k1000", Unit: "us", Better: "lower"},
	{Name: "search.postings_advanced_per_query", Unit: "count", Better: "lower"},
	{Name: "search.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "search.docs_skipped_share", Unit: "ratio", Better: "higher"},
	{Name: "search.bound_evals_per_query", Unit: "count", Better: "lower"},
	{Name: "search.heap_evictions_per_query", Unit: "count", Better: "lower"},
	{Name: "search.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "index.decode_ns_per_posting", Unit: "ns", Better: "lower"},
	{Name: "index.blocks_decoded_share", Unit: "ratio", Better: "lower"},
	{Name: "index.bytes_per_posting", Unit: "B", Better: "lower"},
	{Name: "search.segments_per_query", Unit: "count", Better: "lower"},
	{Name: "search.tombstone_overfetch", Unit: "ratio", Better: "lower"},
	{Name: "index.segments_mean", Unit: "count", Better: "lower"},
	{Name: "index.tombstone_ratio_max", Unit: "ratio", Better: "lower"},
	{Name: "index.ingest_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "index.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "index.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "index.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "serve.ingest_stall_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest_docs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ingest_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rpc.calls_per_query", Unit: "count", Better: "lower"},
	{Name: "rpc.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "rpc.bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "rpc.share_of_retrieval", Unit: "ratio", Better: "lower"},
	{Name: "search.slowest_shard_share", Unit: "ratio", Better: "lower"},
	{Name: "search.merge_us", Unit: "us", Better: "lower"},
	{Name: "serve.overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_waits", Unit: "count", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.timeouts", Unit: "count", Better: "lower"},
	{Name: "serve.scaling_eff", Unit: "ratio", Better: "higher"},
	{Name: "bench.prepare_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.coverage_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.stage_agreement", Unit: "ratio", Better: "higher"},
}
