GO ?= go

.PHONY: build test race vet fmt bench bench-build chaos fuzz verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Race-checks the packages with concurrency: the expansion cache and
# the title leaves cached per article (their concurrent cold fill ten
# times over), the motif rows (their concurrent cold fill), the
# index's positional-leaf and tombstone-correction memos, its read-only
# stored bounds and its once-per-block bounds check (their contention
# tests ten times over, with a reader filling a leaf while Compact
# carries the memo), the retrieval hot path, the RPC wire, the fault-injection chaos harness,
# the HTTP serving layer, and the root package's shared-Engine /
# index-while-chaos stress tests.
race:
	$(GO) test -race . ./internal/core/... ./internal/motif/... ./internal/index/... ./internal/search/... ./internal/rpc/... ./internal/fault/... ./internal/serve/...
	$(GO) test -race -count=10 -run 'TestPositionalMemoConcurrent|TestTombstoneCorrectionsConcurrent|TestV2StoredBoundsNeverRewritten|TestV2BoundsCheckedOncePerBlock|TestCompactCarriesNoUnfinishedFill' ./internal/index/
	$(GO) test -race -count=10 -run 'TestTitleLeafConcurrentFill' ./internal/core/

# Baseline retrieval (SearchBaseline: raw keyword queries at k = 1000,
# the few-leaf queries the cost model scores exhaustively), expanded
# retrieval (SearchExpandedTopKDAAT fans out over k x {memory, v2} on
# CHiC), the positional miss path it rests on (the exported
# phrase / window materialisers run the same intersection the memo
# fills from; PositionalColdV2 resolves every multi-word KB title on a
# freshly opened CHiC v2 file, block cursors and all, and its heap-MB is
# what the opened index keeps live), the first forward vector PRF reads
# from a freshly opened CHiC v2 file (DocVectorColdV2; heap-MB likewise),
# the memo hit every warm phrase leaf takes, and SQE_C over
# a live segment with 0 / 64 / 1024 tombstones (ns/op and allocs/op must
# read flat across the three), one compaction of a 20 000-document
# base plus 16 tombstoned segments (B/op and allocs/op are the merge's
# footprint; ns/op is mostly its two fsyncs) — cold, and Warm with 1 024
# phrases resolved on every segment, whose difference is what carrying
# the positional memo into the merged segment costs — and the two-way split of a
# 20 000-document v2 file into shard images (B/op and allocs/op are what
# it costs beside the mapping). RemoteEvaluate is coordinator-s2 below
# the HTTP tier: two shard servers on loopback behind the RPC
# coordinator (B/op and allocs/op count both ends of the wire).
# KBDecode is the KB's boot: kb.Decode of the default world at ×1, ×8
# and ×32 TopicsPerDomain, with the heap the graph holds (heap-MB);
# generating the ×32 world takes ~7 s of its run.
# SQECRequest is one warmed SQE_C Engine.Do over a v2 file (and over
# shards, a live index, and at k = 1000, where S is never dropped);
# SQECAfterCompact is one lap of SQE_C requests right after a compaction
# of a warmed live engine (what the carried memo saves). An evaluator
# A/B runs these on two commits interleaved (parent, change, parent, ...)
# at -cpu 1, where ns/op is the request's CPU: the shared host drifts
# more between back-to-back runs than most changes move them.
# ServeExpand and ServeSearch drive serve.Server.ServeHTTP through
# httptest, the HTTP tier without a socket: ServeExpand is expand-wide's
# stream (1–3 articles drawn from the default world, a 4096-entry
# expansion cache), ServeSearch the demo's queries with their entities
# at k = 10; they live in internal/serve because serve imports the root
# package.
bench:
	$(GO) test -run NONE -bench 'SearchBaseline|SearchExpandedTopK|PhrasePostings|PositionalColdV2|DocVectorColdV2|UnorderedWindow|SegmentedTombstoned|RemoteEvaluate|SQECRequest|SQECAfterCompact|KBDecode' -benchmem .
	$(GO) test -run NONE -bench 'PositionalLeafHit|SegmentedCompact|NewSharded' -benchmem ./internal/index/
	$(GO) test -run NONE -bench 'ServeExpand|ServeSearch' -benchmem ./internal/serve/

# bench/ is a nested module, so the root `go vet ./...` and
# `go test ./...` skip it: this is what notices a refactor breaking the
# surface bench/sut.go compiles against.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Not part of verify — `test` and `race` already run all of it. To
# attribute a red `make verify` quickly, re-run one slice uncached. For
# the bit-identity invariant the slice is a row of the differential
# harness (DESIGN.md §14): `go test -count=1 -run
# 'TestDifferential/shards-.*' .`, likewise `/v2.*`, `/segmented-.*`,
# `/rpc-2`; one layer down, a shape of the evaluator harness: `go test
# -count=1 -run 'TestParity/<shape>.*' ./internal/search/`, likewise
# `TestParity/v2-bs1.*`, `/tombstones-.*`; below that, a kind of the
# index parity table: `go test -count=1 -run 'TestIndexParity/<kind>.*'
# ./internal/index/`, likewise `TestIndexParity/split-.*`,
# `/compacted-warm`. For fault injection (DESIGN.md §11: the registry, the
# engine-level chaos harness and the HTTP-level one) it is this target.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Schedule|Degrad|MaxFaults|Disarmed|Panic|ErrorClassification|Points|Backend|ErrorPaths' ./internal/fault/ ./internal/serve/

# A 30 s fuzz round for every Fuzz target of every package, found with
# `go test -list`, so a new target is fuzzed without an edit here. Not
# part of verify — run on demand or in CI's fuzz job (15-minute limit;
# the whole loop took 8.6 minutes on 2 vCPUs). Minimising each
# coverage-interesting input is capped at 2 s: an op of
# FuzzDifferentialScript is file I/O, and the default 60 s would leave
# no time to fuzz.
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 30s -fuzzminimizetime 2s $$pkg; \
		done; \
	done

# The full gate run before every commit. Correctness is `go test`, under
# -race for every package with concurrency; performance is
# `bash bench/run.sh` (bench/README.md), which bench-build keeps
# compiling.
verify: vet fmt build bench-build test race
	@echo "verify: OK"
