package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	sqe "repro"
	"repro/internal/index"
	"repro/internal/rpc"
	"repro/internal/search"
)

// runShardServer is -mode shard: it obtains the corpus index — from an
// on-disk file via index.Open when indexPath is set (mmap'd, lazily
// decoded), by regenerating the (deterministic) demo corpus otherwise —
// carves out slice i of an N-way round-robin partition (the same
// partition function the coordinator's parity baseline uses), keeps
// only that slice, and serves it over the RPC protocol until
// SIGINT/SIGTERM. The bound
// address is printed to stdout as "LISTEN <addr>" so a supervisor can
// pass :0 and discover the port.
func runShardServer(scale sqe.DemoScale, spec, addr, indexPath string) error {
	shard, numShards, err := parseShardSpec(spec)
	if err != nil {
		return err
	}
	var full *index.Index
	if indexPath != "" {
		if full, err = index.Open(indexPath); err != nil {
			return fmt.Errorf("-index %s: %w", indexPath, err)
		}
		log.Printf("shard %d/%d serving from on-disk index %s (%d docs)",
			shard, numShards, indexPath, full.NumDocs())
	} else {
		log.Printf("generating demo environment for shard %d/%d …", shard, numShards)
		env, err := sqe.GenerateDemo(scale)
		if err != nil {
			return err
		}
		full = env.Engine.Index()
	}
	// A split shard is its own in-memory image, so the parent's mapping
	// and the other shards are released as soon as this one is cut (with
	// one shard, the shard is the parent).
	local := index.NewSharded(full, numShards).Shard(shard)
	if local != full {
		full.Close()
	}
	defer local.Close()
	srv := rpc.NewServer()
	search.NewShardService(local, shard, numShards).Register(srv)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("LISTEN %s\n", ln.Addr())
	log.Printf("shard %d/%d serving RPC on %s (%d local docs)",
		shard, numShards, ln.Addr(), local.NumDocs())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Println("shutting down …")
		srv.Close()
		return nil
	}
}

// parseShardSpec parses "i/N".
func parseShardSpec(spec string) (shard, numShards int, err error) {
	i, n, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, fmt.Errorf("-shard %q: want i/N (e.g. 0/2)", spec)
	}
	if shard, err = strconv.Atoi(i); err == nil {
		numShards, err = strconv.Atoi(n)
	}
	if err != nil || shard < 0 || numShards <= 0 || shard >= numShards {
		return 0, 0, fmt.Errorf("-shard %q: want i/N with 0 <= i < N", spec)
	}
	return shard, numShards, nil
}

// dialShardGroups is -mode coordinator's topology parser and handshake:
// spec is a comma-separated list of shard addresses in shard order;
// replicas of one shard are separated by "|". Client-level retry is
// disabled — the engine's degradation policy owns retries, so a failure
// is counted and classified exactly once.
func dialShardGroups(spec string) (*search.RemoteSharded, error) {
	var groups []*rpc.Group
	for _, g := range strings.Split(spec, ",") {
		var replicas []*rpc.Client
		for _, a := range strings.Split(g, "|") {
			if a = strings.TrimSpace(a); a != "" {
				replicas = append(replicas, rpc.NewClient(a, rpc.ClientOptions{MaxRetries: -1}))
			}
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("-shards %q: empty shard group", spec)
		}
		groups = append(groups, rpc.NewGroup(replicas, rpc.GroupOptions{}))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rs, err := search.NewRemoteSharded(ctx, groups)
	if err != nil {
		for _, g := range groups {
			g.Close()
		}
		return nil, err
	}
	log.Printf("coordinator connected to %d shard groups", rs.NumShards())
	return rs, nil
}
