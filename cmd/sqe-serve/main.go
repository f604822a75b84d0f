// Command sqe-serve boots the HTTP serving layer (internal/serve) over
// the demo environment: the full SQE_C pipeline, whose three motif-set
// runs are one evaluation (DESIGN.md §9.2), an expansion cache,
// per-request deadlines, admission control and Prometheus metrics.
//
// Usage:
//
//	sqe-serve [-mode serve|shard|coordinator] [-addr :8344]
//	          [-scale small|default] [-timeout 10s] [-max-inflight 64]
//	          [-queue 0] [-queue-timeout 0] [-cache 4096] [-workers 0]
//	          [-shards 1] [-shard i/N] [-degrade]
//	          [-index file] [-write-index file]
//	          [-ingest] [-segments dir] [-flush-docs 0]
//
// On-disk index (DESIGN.md §8.1): -write-index builds the demo corpus,
// writes its index to the given path as a FormatV2 file and exits.
// -index makes -mode serve and -mode shard retrieve from such a file
// via index.Open — an mmap with lazy per-block decode — instead of the
// in-memory demo index; everything else (knowledge graph, expansion,
// queries) still comes from the deterministic demo environment, so the
// file must describe the same corpus at the same -scale (checked at
// boot).
//
// Modes (see DESIGN.md §10):
//
//	-mode serve        (default) one process, optional in-process shards
//	                   (-shards N).
//	-mode shard -shard i/N
//	                   serve slice i of an N-way round-robin partition
//	                   over the RPC protocol (shard.info/stats/eval) on
//	                   -addr. No HTTP; one process per shard.
//	-mode coordinator -shards host:a,host:b,...
//	                   serve the HTTP API, fanning retrieval out to the
//	                   listed shard servers (order = shard index).
//	                   Replicas of one shard are separated by "|":
//	                   "a1|a2,b" is shard 0 on {a1,a2}, shard 1 on b.
//
// Every mode prints "LISTEN <addr>" to stdout once its socket is bound,
// so a supervisor can pass -addr 127.0.0.1:0 and discover the port.
//
// HTTP endpoints (see internal/serve):
//
//	GET  /v1/search?q=cable+cars&entities=Cable+car&k=10  SQE_C search
//	GET  /v1/expand?q=…&entities=…&set=TS                 expansion only
//	GET  /v1/baseline?q=…&k=10                            QL_Q baseline
//	POST /v1/ingest                                       live mutations (-ingest)
//	GET  /healthz                                         liveness
//	GET  /metrics                                         Prometheus text
//
// All work endpoints also accept POST with a JSON body
// {"query": …, "entities": […], "k": …, "set": …}.
//
// -ingest serves a live segmented engine (DESIGN.md §8.4) instead of an
// immutable one: the deterministic demo corpus is streamed into an LSM
// index rooted at -segments (a fresh temp directory when unset) and
// POST /v1/ingest then accepts live adds, deletes, flushes and
// compactions. Passing a persistent -segments path makes the committed
// segments durable: reopening the directory recovers them from the
// manifest (including deletes) and skips re-seeding the demo corpus.
// -flush-docs bounds the in-memory buffer before an automatic flush.
//
// The binary carries no self-test: main_test.go drives the three modes
// as real processes, and everything below the process boundary is
// covered by `go test ./...` (DESIGN.md §14).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	sqe "repro"
	"repro/internal/index"
	"repro/internal/search"
	"repro/internal/serve"
)

// runWriteIndex is -write-index: build the deterministic demo corpus,
// write its FormatV2 index image to path (atomic temp+fsync+rename
// inside index.WriteFile) and exit.
func runWriteIndex(scale sqe.DemoScale, path string) error {
	log.Println("generating demo environment …")
	env, err := sqe.GenerateDemo(scale)
	if err != nil {
		return err
	}
	if err := index.WriteFile(path, env.Engine.Index(), index.FormatV2); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	log.Printf("wrote index of %s (%d docs) to %s (%d bytes)",
		env.DatasetName, env.Engine.Index().NumDocs(), path, fi.Size())
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sqe-serve: ")
	mode := flag.String("mode", "serve", "process role: serve | shard | coordinator")
	addr := flag.String("addr", ":8344", "listen address")
	scaleFlag := flag.String("scale", "small", "demo corpus scale: small|default")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline (0 = default, negative = off)")
	maxInFlight := flag.Int("max-inflight", 64, "work requests evaluating concurrently before shedding 429s")
	queueDepth := flag.Int("queue", 0, "admission-queue depth: requests that wait for a slot instead of shedding (0 = shed immediately)")
	queueTimeout := flag.Duration("queue-timeout", 0, "max time a queued request waits for a slot (0 = 100ms default when -queue > 0)")
	cacheSize := flag.Int("cache", 4096, "expansion cache entries (0 = off)")
	workers := flag.Int("workers", 0, "engine-wide worker pool for shard fan-outs (0 = GOMAXPROCS, 1 = inline)")
	shards := flag.String("shards", "1", "mode=serve: in-process shard count; mode=coordinator: comma-separated shard server addresses (replicas of one shard separated by |)")
	shardSpec := flag.String("shard", "", "mode=shard: which partition slice this process serves, as i/N (e.g. 0/2)")
	degrade := flag.Bool("degrade", true, "enable graceful degradation (partial shard merges, expansion fallback, transient retries)")
	indexPath := flag.String("index", "", "serve retrieval from this on-disk index file (written by -write-index) instead of the in-memory demo index")
	writeIndex := flag.String("write-index", "", "write the demo corpus index to this path and exit")
	ingest := flag.Bool("ingest", false, "serve a live segmented engine: seed the demo corpus into an LSM index at -segments and accept POST /v1/ingest")
	segmentsDir := flag.String("segments", "", "-ingest: segment directory (empty = fresh temp dir; a persistent path recovers committed segments across restarts)")
	flushDocs := flag.Int("flush-docs", 0, "-ingest: buffered documents that trigger an automatic segment flush (0 = package default)")
	flag.Parse()

	scale := sqe.DemoSmall
	if *scaleFlag == "default" {
		scale = sqe.DemoDefault
	}

	if *writeIndex != "" {
		if err := runWriteIndex(scale, *writeIndex); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *mode == "shard" {
		if err := runShardServer(scale, *shardSpec, *addr, *indexPath); err != nil {
			log.Fatal(err)
		}
		return
	}

	log.Println("generating demo environment …")
	opts := []sqe.Option{sqe.WithExpansionCache(*cacheSize)}
	if *workers != 0 {
		opts = append(opts, sqe.WithSQECWorkers(*workers))
	}
	var remote *search.RemoteSharded
	switch *mode {
	case "serve":
		n, err := strconv.Atoi(*shards)
		if err != nil {
			log.Fatalf("-shards %q: mode=serve wants an in-process shard count", *shards)
		}
		if n > 1 {
			opts = append(opts, sqe.WithShards(n))
		}
	case "coordinator":
		var err error
		if remote, err = dialShardGroups(*shards); err != nil {
			log.Fatal(err)
		}
		defer remote.Close()
		opts = append(opts, sqe.WithDistributedSearcher(remote))
	default:
		log.Fatalf("unknown -mode %q (serve, shard or coordinator)", *mode)
	}
	if *degrade {
		opts = append(opts, sqe.WithDegradation(sqe.DefaultDegradation()))
	}
	var env *sqe.DemoEnv
	var err error
	if *ingest {
		if *mode != "serve" {
			log.Fatalf("-ingest applies to -mode serve, not %q", *mode)
		}
		if *indexPath != "" || *shards != "1" {
			log.Fatal("-ingest is incompatible with -index and -shards (the live engine searches its own segments)")
		}
		env, err = buildLiveServing(scale, *segmentsDir, *flushDocs, opts)
	} else {
		env, err = buildServing(scale, *mode, *indexPath, opts)
	}
	if err != nil {
		log.Fatal(err)
	}
	defer env.Engine.Index().Close() // unmaps an -index file; a no-op in memory
	if live := env.Engine.Live(); live != nil {
		defer live.Close()
	}
	srv := serve.New(serve.Config{
		Engine:       env.Engine,
		Timeout:      *timeout,
		MaxInFlight:  *maxInFlight,
		QueueDepth:   *queueDepth,
		QueueTimeout: *queueTimeout,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LISTEN %s\n", ln.Addr())
	httpSrv := &http.Server{Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	role := "single-process"
	if remote != nil {
		role = fmt.Sprintf("coordinator over %d shard servers", remote.NumShards())
	}
	log.Printf("serving %s on %s as %s (%d queries in corpus; try /v1/search?q=%s)",
		env.DatasetName, ln.Addr(), role, len(env.Queries), url.QueryEscape(env.Queries[0].Text))
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		// Graceful drain: stop accepting, let in-flight requests finish
		// under a bounded deadline, then exit.
		log.Println("shutting down …")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		// A live index buffers unflushed documents in memory; make them
		// durable before Close so a graceful restart loses nothing.
		if live := env.Engine.Live(); live != nil {
			if err := live.Flush(); err != nil {
				log.Printf("WARNING: final flush: %v", err)
			}
		}
	}
}

// buildServing builds the immutable serving engine once: over the
// on-disk index at indexPath (an mmap with lazy per-block decode) when
// set, over the in-memory demo index otherwise, with the demo linker in
// either case. The file must describe the demo corpus at this -scale —
// serving a mismatched file would return confidently wrong rankings —
// which GenerateDemoOver checks at boot.
func buildServing(scale sqe.DemoScale, mode, indexPath string, opts []sqe.Option) (*sqe.DemoEnv, error) {
	if indexPath == "" {
		return sqe.GenerateDemo(scale, opts...)
	}
	if mode != "serve" {
		return nil, fmt.Errorf("-index applies to -mode serve and -mode shard, not %q", mode)
	}
	disk, err := index.Open(indexPath)
	if err != nil {
		return nil, fmt.Errorf("-index %s: %w", indexPath, err)
	}
	env, err := sqe.GenerateDemoOver(scale, disk, opts...)
	if err != nil {
		disk.Close()
		return nil, fmt.Errorf("-index %s: %w — wrong file or wrong -scale", indexPath, err)
	}
	log.Printf("serving retrieval from on-disk index %s (%d docs)", indexPath, disk.NumDocs())
	return env, nil
}

// buildLiveServing is -ingest: open (or create) the segmented index at
// dir and wrap it in a live engine over the demo knowledge graph. A
// fresh index is seeded with the demo corpus so the process is
// immediately searchable; a reopened directory keeps whatever its
// manifest holds — the corpus is NOT re-seeded, so deletes made through
// /v1/ingest survive restarts.
func buildLiveServing(scale sqe.DemoScale, dir string, flushDocs int, opts []sqe.Option) (*sqe.DemoEnv, error) {
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "sqe-segments-"); err != nil {
			return nil, err
		}
		log.Printf("segment directory %s (pass -segments to persist across restarts)", dir)
	}
	env, docs, err := sqe.GenerateDemoLive(scale, dir, flushDocs, opts...)
	if err != nil {
		return nil, err
	}
	ls, _ := env.Engine.LiveStats()
	if ls.LiveDocs == 0 && ls.BufferDocs == 0 {
		log.Printf("seeding live index with %d demo documents …", len(docs))
		for _, d := range docs {
			if err := env.Engine.Ingest(d.Name, d.Text); err != nil {
				return nil, fmt.Errorf("seed %s: %w", d.Name, err)
			}
		}
		if err := env.Engine.Flush(); err != nil {
			return nil, err
		}
		ls, _ = env.Engine.LiveStats()
	} else {
		log.Printf("recovered live index from %s", dir)
	}
	log.Printf("live index: %d docs in %d segments (%d tombstones)",
		ls.LiveDocs, ls.DiskSegments, ls.Tombstones)
	return env, nil
}
