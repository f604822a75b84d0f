GO ?= go

.PHONY: build test race vet fmt bench bench-build bench-shards bench-pruning bench-expansion bench-blockmax bench-hotpath bench-check shard-parity index-parity segment-parity serve-smoke precompute-smoke ingest-smoke distributed-smoke load-smoke chaos fuzz verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Race-checks the packages with concurrency: parallel expansion, the
# index's positional-leaf memo (its contention test ten times over), the
# retrieval hot path, the HTTP serving layer, and the root package's
# parallel-SQE_C / shared-Engine stress tests.
race:
	$(GO) test -race . ./internal/core/... ./internal/index/... ./internal/search/... ./internal/serve/...
	$(GO) test -race -count=10 -run 'TestPositionalMemoConcurrent' ./internal/index/

# Expanded retrieval, the positional miss path it rests on (the exported
# phrase / window materialisers run the same intersection the memo
# fills from), and the memo hit every warm phrase leaf takes.
bench:
	$(GO) test -run NONE -bench 'SearchExpandedTopK|PhrasePostings|UnorderedWindow' -benchmem .
	$(GO) test -run NONE -bench 'PositionalLeafHit' -benchmem ./internal/index/

# bench/ is a nested module, so the root `go vet ./...` and
# `go test ./...` skip it: this is what notices a refactor breaking the
# surface bench/sut.go compiles against.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Sharded-retrieval throughput at 1/2/4/8 shards on the expanded-query
# workload; writes the measurements (including GOMAXPROCS, so readers
# can judge whether parallel speedup was even possible) to
# BENCH_shards.json.
bench-shards:
	$(GO) run ./cmd/sqe-bench -scale small -exp shards -shards 1,2,4,8 -shards-json BENCH_shards.json

# MaxScore pruning effectiveness (documents scored, postings skipped,
# single-core wall clock) on the expanded-query workload; regenerates
# the committed BENCH_pruning.json artifact that bench-check gates on.
bench-pruning:
	$(GO) run ./cmd/sqe-bench -scale small -exp pruning -pruning-json BENCH_pruning.json

# Cold vs warm-LRU vs precomputed-store expansion latency on the
# expanded-query workload, with the store round-tripped through its
# binary format; regenerates the committed BENCH_expansion.json
# artifact that bench-check gates on (>=10x store-vs-cold floor).
bench-expansion:
	$(GO) run ./cmd/sqe-bench -scale small -exp expansion -expansion-json BENCH_expansion.json

# Block-Max MaxScore vs exhaustive DAAT over an mmap'd FormatV2 file,
# on the suite's largest corpus at benchmark (default) scale — block
# skipping is a long-postings-list mechanism, so this is the scale the
# speedup claim is made at. Regenerates the committed
# BENCH_blockmax.json artifact that bench-check gates on (bit-identity,
# >=2x documents-scored reduction, >=1x wall-clock speedup floor).
bench-blockmax:
	$(GO) run ./cmd/sqe-bench -scale default -exp blockmax -blockmax-json BENCH_blockmax.json

# Streaming per-block cursors + pooled scratch vs the eager whole-term
# hot path (PR 8's configuration), on CHiC 2012 at benchmark (default)
# scale: cold time-to-first-result per leg, warm p50/p99, allocs/query
# with the scratch pool off vs on, and the decoded-block fraction.
# Regenerates the committed BENCH_hotpath.json artifact that
# bench-check gates on (three-way bit-identity, <60% of blocks decoded
# and >=1.3x cold speedup on the quoted Dirichlet row, >=10x allocation
# reduction); bench-check's fresh leg re-runs this bench inside
# `make verify`, so the wiring into verify and CI is through it.
bench-hotpath:
	$(GO) run ./cmd/sqe-bench -scale default -exp hotpath -hotpath-json BENCH_hotpath.json

# The benchmark regression gate: validates the committed BENCH_*.json
# artifacts (bit-identity flags, >=2x documents-scored reduction) and
# re-runs the pruning bench to demand its deterministic counters match
# the artifact exactly. See cmd/bench-check for what is gated how hard.
bench-check:
	$(GO) run ./cmd/bench-check

# The bit-identity gates for partitioned retrieval: the coordinator
# contract over every partition kind, plus the evaluator-level and
# engine-level sharded differential tests across shard counts and models.
shard-parity:
	$(GO) test -run 'Sharded|CoordinatorContract' -count=1 . ./internal/index/... ./internal/search/...

# The on-disk format gate: the v1-vs-v2-vs-memory differential tests
# (engine-level across models, request shapes and shard counts; plus
# the Block-Max-over-v2 evaluator differentials), then sqe-serve
# serving the demo corpus from freshly written v1 and v2 files through
# index.Open — the v2 one an mmap with lazy per-block decode.
index-parity:
	$(GO) test -count=1 -run 'TestEngineFormatParity' .
	$(GO) test -count=1 -run 'TestV2|TestOpen|TestBuilderWriteFile|TestBuildHelper|TestBlockMax' ./internal/index/ ./internal/search/
	$(GO) run ./cmd/sqe-serve -write-index /tmp/sqe-index-parity.v1 -index-format v1
	$(GO) run ./cmd/sqe-serve -smoke -index /tmp/sqe-index-parity.v1
	$(GO) run ./cmd/sqe-serve -write-index /tmp/sqe-index-parity.v2 -index-format v2
	$(GO) run ./cmd/sqe-serve -smoke -shards 2 -index /tmp/sqe-index-parity.v2
	@rm -f /tmp/sqe-index-parity.v1 /tmp/sqe-index-parity.v2

# The live-index bit-identity gate (DESIGN.md §5l): the LSM segmented
# engine vs a monolithic index over the same surviving documents —
# models × raw/expanded × shard counts × flush sizes, post-delete and
# post-compaction, mutation visibility, the golden-corpus leg — plus
# the index-while-chaos harness and the crash/restart/torn-file
# differential under -race, and the segment/manifest/mmap-leak unit
# tests (manifest corruption, orphan recovery, snapshot pinning,
# tombstone stats correction).
segment-parity:
	$(GO) test -count=1 -run 'TestSegmented' .
	$(GO) test -race -count=1 -run 'TestIndexWhileChaos|TestSegmentedCrashRestart' .
	$(GO) test -count=1 -run 'TestSegmented|TestManifest|TestWriteReadManifest|TestReadManifest|TestCleanOrphans|TestCloseIdempotent|TestOpenCloseLeakFree' ./internal/index/ ./internal/search/

# Boots sqe-serve on the demo corpus with a sharded engine, drives one
# in-process request through every endpoint (200 + non-empty payload
# checks, including per-shard metrics) and exits.
serve-smoke:
	$(GO) run ./cmd/sqe-serve -smoke -shards 4

# The offline-precompute gate: builds an expansion store over the tiny
# demo KB (with self-check: every stored entry re-verified against live
# expansion), then boots sqe-serve with the store attached — once
# uncached so the store serves lookups directly, once with the default
# cache so boot-time warming is exercised — and demands byte-identical
# results vs live expansion over every demo query (see runSmoke's
# precomputed check in cmd/sqe-serve).
precompute-smoke:
	$(GO) run ./cmd/sqe-precompute -scale small -out /tmp/sqe-precompute-smoke.store -force -selfcheck
	$(GO) run ./cmd/sqe-serve -smoke -cache 0 -precomputed /tmp/sqe-precompute-smoke.store
	$(GO) run ./cmd/sqe-serve -smoke -shards 2 -precomputed /tmp/sqe-precompute-smoke.store
	@rm -f /tmp/sqe-precompute-smoke.store

# The live-ingest serving gate: boots sqe-serve's live segmented
# engine over an empty segment directory, streams the demo corpus
# through POST /v1/ingest in batches under concurrent queries, and
# demands bit-identical rankings vs the monolithic demo engine, a
# delete+compact leg against a survivors oracle, the sqe_live_*
# metrics family, and the POST-only typed envelope (see runIngestSmoke
# in cmd/sqe-serve).
ingest-smoke:
	$(GO) run ./cmd/sqe-serve -ingest-smoke

# The multi-process gate: re-execs sqe-serve as real shard server
# processes (shard 0 with two replicas, shard 1 with one), boots a
# coordinator over them, and demands bit-identity against single-
# process WithShards(2), clean behaviour under RPC-boundary chaos,
# replica failover without degradation, and dead-shard degradation
# surfaced end to end over HTTP (see runDistributedSmoke in
# cmd/sqe-serve).
distributed-smoke:
	$(GO) run ./cmd/sqe-serve -distributed-smoke

# The serving-layer load gate: sqe-load boots the full distributed
# stack in-process (real RPC shard servers on loopback TCP + the
# coordinator + HTTP), offers a fixed open-loop rate, regenerates the
# committed BENCH_distributed.json latency/SLO artifact, and
# bench-check validates it (zero errors, zero degradation, p99 SLO).
load-smoke:
	$(GO) run ./cmd/sqe-load -self-serve -rate 150 -duration 3s -out BENCH_distributed.json
	$(GO) run ./cmd/bench-check -fresh=false

# The chaos gate: the fault-injection registry's unit tests plus the
# chaos harness (seeded random faults at every registered point against
# a sharded, cached, degradation-enabled engine) under -race, then the
# sqe-serve chaos smoke over HTTP. See DESIGN.md §5g.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Schedule|Degrad|MaxFaults|Disarmed|Panic|ErrorClassification|Points' ./internal/fault/
	$(GO) test -race -count=1 -run 'Degrad|Backend|ErrorPaths' ./internal/serve/
	$(GO) test -count=1 -run 'TestGoldenRetrieval' .
	$(GO) run ./cmd/sqe-serve -chaos -shards 4

# Short fuzz rounds over every fuzz target with a committed seed corpus
# (wikixml parser, index decoder). Not part of verify — run on demand or
# in CI's cron lane.
fuzz:
	$(GO) test -fuzz FuzzWikiXMLParse -fuzztime 30s -run '^$$' ./internal/wikixml/
	$(GO) test -fuzz FuzzIndexDecode -fuzztime 30s -run '^$$' ./internal/index/
	$(GO) test -fuzz FuzzBlockDecode -fuzztime 30s -run '^$$' ./internal/index/
	$(GO) test -fuzz FuzzOpenV2 -fuzztime 30s -run '^$$' ./internal/index/
	$(GO) test -fuzz FuzzSegmentManifest -fuzztime 30s -run '^$$' ./internal/index/

# The full gate run before every commit.
verify: vet fmt build bench-build race test shard-parity index-parity segment-parity bench-check serve-smoke precompute-smoke ingest-smoke distributed-smoke load-smoke chaos
	@echo "verify: OK"
