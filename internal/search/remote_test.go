package search

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/rpc"
)

// startShardServer boots one ShardService on an ephemeral port. wrap,
// when non-nil, may replace method handlers (tests use it to slow down
// or fail specific phases).
func startShardServer(t *testing.T, svc *ShardService, wrap func(srv *rpc.Server)) (string, *rpc.Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	svc.Register(srv)
	if wrap != nil {
		wrap(srv)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Close)
	return ln.Addr().String(), srv
}

// testClientOptions keeps test-failure latency low: client-level retry
// off (the degradation layer owns retries), short timeouts.
func testClientOptions() rpc.ClientOptions {
	return rpc.ClientOptions{
		DialTimeout: time.Second,
		CallTimeout: 5 * time.Second,
		MaxRetries:  -1,
	}
}

// bootRemote partitions ix n ways, boots one shard server per shard,
// and returns the RPC coordinator plus the in-process equivalent for
// parity checks.
func bootRemote(t *testing.T, ix *index.Index, n int) (*RemoteSharded, *ShardedSearcher) {
	t.Helper()
	sh := index.NewSharded(ix, n)
	groups := make([]*rpc.Group, sh.NumShards())
	for i := 0; i < sh.NumShards(); i++ {
		addr, _ := startShardServer(t, NewShardService(sh.Shard(i), i, sh.NumShards()), nil)
		groups[i] = rpc.NewGroup([]*rpc.Client{rpc.NewClient(addr, testClientOptions())}, rpc.GroupOptions{})
	}
	rs, err := NewRemoteSharded(context.Background(), groups)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	return rs, NewShardedSearcher(sh)
}

// evalDegraded is Evaluate under opts, unpacked.
func evalDegraded(d Distributed, q Node, k int, opts DegradeOptions) ([]Result, PartialInfo, error) {
	ev, err := d.Evaluate(context.Background(), q, k, EvalOptions{Degrade: &opts})
	return ev.Results, ev.Partial, err
}

func TestWireNodeRoundTrip(t *testing.T) {
	for qi, q := range shardQueries() {
		wn, err := EncodeNode(q)
		if err != nil {
			t.Fatalf("q=%d: %v", qi, err)
		}
		data, err := json.Marshal(wn)
		if err != nil {
			t.Fatalf("q=%d: %v", qi, err)
		}
		var decoded WireNode
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatalf("q=%d: %v", qi, err)
		}
		back, err := DecodeNode(decoded)
		if err != nil {
			t.Fatalf("q=%d: %v", qi, err)
		}
		// The Indri rendering is injective over the node kinds in use;
		// equal strings mean an identical tree (weights included, as they
		// print with enough precision to spot structural drift).
		if q.String() != back.String() {
			t.Fatalf("q=%d: round trip changed tree:\n got %s\nwant %s", qi, back.String(), q.String())
		}
	}
}

// TestRemoteShardedStatsMatchInProcess checks every deterministic
// evaluator counter survives the wire (the pruning and heap counters
// included, which the coordinator contract compares only in process):
// remote stats must equal in-process sharded stats counter for counter.
func TestRemoteShardedStatsMatchInProcess(t *testing.T) {
	ix := buildShardCorpus(150, 21)
	rs, ss := bootRemote(t, ix, 4)
	q := Combine(Term{Text: "cable"}, Term{Text: "car"}, Term{Text: "bay"})
	_, wantSt, err := ss.SearchWithStatsContext(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, gotSt, err := rs.SearchWithStatsContext(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameCounters(t, "remote vs in-process", gotSt, wantSt, true)
	if len(gotSt.Shards) != 4 {
		t.Fatalf("remote stats carry %d shard rows, want 4", len(gotSt.Shards))
	}
}

// TestRemoteEvalTimeoutDegradesExactPartial maps a slow shard (eval
// phase exceeds the per-shard deadline) to PR 5's exact-partial tier:
// the degraded ranking must be bit-identical to the complete ranking
// minus the dropped shard's documents.
func TestRemoteEvalTimeoutDegradesExactPartial(t *testing.T) {
	ix := buildShardCorpus(100, 5)
	const n, slow, k = 4, 2, 10
	sh := index.NewSharded(ix, n)
	groups := make([]*rpc.Group, n)
	for i := 0; i < n; i++ {
		svc := NewShardService(sh.Shard(i), i, n)
		var wrap func(*rpc.Server)
		if i == slow {
			wrap = func(srv *rpc.Server) {
				srv.Handle(MethodEval, func(ctx context.Context, body json.RawMessage) (any, error) {
					time.Sleep(400 * time.Millisecond)
					return svc.handleEval(ctx, body)
				})
			}
		}
		addr, _ := startShardServer(t, svc, wrap)
		groups[i] = rpc.NewGroup([]*rpc.Client{rpc.NewClient(addr, testClientOptions())}, rpc.GroupOptions{})
	}
	rs, err := NewRemoteSharded(context.Background(), groups)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	q := Combine(Term{Text: "cable"}, Term{Text: "car"}, Term{Text: "tram"})
	res, pi, err := evalDegraded(rs, q, k, DegradeOptions{
		AllowPartial:  true,
		ShardDeadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pi.DroppedShards) != 1 || pi.DroppedShards[0] != slow {
		t.Fatalf("dropped shards = %v (%v), want [%d]", pi.DroppedShards, pi.ShardErrors, slow)
	}
	if strings.HasPrefix(pi.ShardErrors[0], "stats phase:") {
		t.Fatalf("slow eval recorded as stats-phase drop: %q", pi.ShardErrors[0])
	}

	// Exact-partial invariant: complete ranking minus the slow shard's
	// documents (round-robin: global doc g lives in shard g mod n).
	full := NewSearcher(ix).Search(q, ix.NumDocs())
	var want []Result
	for _, r := range full {
		if int(r.Doc)%n != slow {
			want = append(want, r)
		}
	}
	if len(want) > k {
		want = want[:k]
	}
	if len(res) != len(want) {
		t.Fatalf("%d partial results, want %d", len(res), len(want))
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("rank %d: got (%d,%v), want (%d,%v) — partial merge is not exact",
				i, res[i].Doc, res[i].Score, want[i].Doc, want[i].Score)
		}
	}
}

// TestRemoteDeadShardDegradesAtStatsPhase maps a refused connection (the
// shard process is gone) to the stats-phase exclusion tier: the query
// degrades, the drop is labelled as stats-phase, and the surviving
// shards still answer deterministically.
func TestRemoteDeadShardDegradesAtStatsPhase(t *testing.T) {
	ix := buildShardCorpus(80, 13)
	const n, dead = 2, 1
	sh := index.NewSharded(ix, n)
	groups := make([]*rpc.Group, n)
	var deadSrv *rpc.Server
	for i := 0; i < n; i++ {
		addr, srv := startShardServer(t, NewShardService(sh.Shard(i), i, n), nil)
		if i == dead {
			deadSrv = srv
		}
		groups[i] = rpc.NewGroup([]*rpc.Client{rpc.NewClient(addr, testClientOptions())}, rpc.GroupOptions{})
	}
	rs, err := NewRemoteSharded(context.Background(), groups)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	q := Term{Text: "cable"}

	// Healthy first: not degraded.
	if _, pi, err := evalDegraded(rs, q, 5, DegradeOptions{AllowPartial: true}); err != nil || pi.Degraded() {
		t.Fatalf("healthy search: err=%v degraded=%v", err, pi.Degraded())
	}

	// Kill the shard process (listener + live connections).
	deadSrv.Close()
	groups[dead].Close() // drop pooled connections to the dead server

	res, pi, err := evalDegraded(rs, q, 5, DegradeOptions{AllowPartial: true, MaxRetries: 1})
	if err != nil {
		t.Fatalf("dead shard with AllowPartial: %v", err)
	}
	if len(pi.DroppedShards) != 1 || pi.DroppedShards[0] != dead {
		t.Fatalf("dropped shards = %v, want [%d]", pi.DroppedShards, dead)
	}
	if !strings.HasPrefix(pi.ShardErrors[0], "stats phase:") {
		t.Fatalf("dead shard not labelled as stats-phase drop: %q", pi.ShardErrors[0])
	}
	if pi.Retries == 0 {
		t.Fatal("no retries recorded against the dead shard")
	}
	if len(res) == 0 {
		t.Fatal("surviving shard produced no results for an in-vocabulary term")
	}
	// Deterministic: the same degraded query again gives the same answer.
	res2, _, err := evalDegraded(rs, q, 5, DegradeOptions{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i] != res2[i] {
			t.Fatal("stats-phase degraded ranking is not deterministic")
		}
	}

	// Without AllowPartial the query must fail outright.
	if _, _, err := evalDegraded(rs, q, 5, DegradeOptions{}); err == nil {
		t.Fatal("dead shard without AllowPartial: expected an error")
	}
}

// fakeTruncatingShard implements the wire protocol by hand: a correct
// shard.info answer (so the handshake passes), then a truncated frame —
// a 200-byte header followed by 3 bytes and a close — for every later
// request. It models a shard dying mid-response.
func fakeTruncatingShard(t *testing.T, shard, numShards int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	infoBody, _ := json.Marshal(InfoResponse{Shard: shard, NumShards: numShards})
	infoResp, _ := json.Marshal(map[string]any{"ok": true, "body": json.RawMessage(infoBody)})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					var hdr [4]byte
					if _, err := readFull(conn, hdr[:]); err != nil {
						return
					}
					payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
					if _, err := readFull(conn, payload); err != nil {
						return
					}
					var req struct {
						Method string `json:"method"`
					}
					if json.Unmarshal(payload, &req) == nil && req.Method == MethodInfo {
						var out [4]byte
						binary.BigEndian.PutUint32(out[:], uint32(len(infoResp)))
						if _, err := conn.Write(append(out[:], infoResp...)); err != nil {
							return
						}
						continue
					}
					// Truncate: promise 200 bytes, deliver 3, hang up.
					var out [4]byte
					binary.BigEndian.PutUint32(out[:], 200)
					_, _ = conn.Write(out[:])
					_, _ = conn.Write([]byte{'{', '"', 'o'})
					return
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func readFull(conn net.Conn, buf []byte) (int, error) {
	read := 0
	for read < len(buf) {
		n, err := conn.Read(buf[read:])
		read += n
		if err != nil {
			return read, err
		}
	}
	return read, nil
}

// TestRemoteTruncatedStreamDegrades maps a mid-stream truncation to a
// degraded (dropped-shard) query rather than a failed or corrupt one.
func TestRemoteTruncatedStreamDegrades(t *testing.T) {
	ix := buildShardCorpus(60, 17)
	const n, broken = 2, 1
	sh := index.NewSharded(ix, n)
	addr0, _ := startShardServer(t, NewShardService(sh.Shard(0), 0, n), nil)
	addr1 := fakeTruncatingShard(t, broken, n)
	groups := []*rpc.Group{
		rpc.NewGroup([]*rpc.Client{rpc.NewClient(addr0, testClientOptions())}, rpc.GroupOptions{}),
		rpc.NewGroup([]*rpc.Client{rpc.NewClient(addr1, testClientOptions())}, rpc.GroupOptions{}),
	}
	rs, err := NewRemoteSharded(context.Background(), groups)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	q := Term{Text: "cable"}
	res, pi, err := evalDegraded(rs, q, 5, DegradeOptions{AllowPartial: true})
	if err != nil {
		t.Fatalf("truncated shard with AllowPartial: %v", err)
	}
	if len(pi.DroppedShards) != 1 || pi.DroppedShards[0] != broken {
		t.Fatalf("dropped shards = %v (%v), want [%d]", pi.DroppedShards, pi.ShardErrors, broken)
	}
	if len(res) == 0 {
		t.Fatal("surviving shard produced no results")
	}

	// Strict mode surfaces the transport error instead.
	_, err = rs.Evaluate(context.Background(), q, 5, EvalOptions{})
	if err == nil || !rpc.IsTransport(err) {
		t.Fatalf("strict search against truncating shard: err = %v, want transport error", err)
	}
}

// TestRemoteReplicaFailoverMasksDeadPrimary: with a replica group, a
// dead primary is a transport detail, not a degradation — the query
// fails over and stays bit-identical and non-degraded.
func TestRemoteReplicaFailoverMasksDeadPrimary(t *testing.T) {
	ix := buildShardCorpus(90, 29)
	const n = 2
	sh := index.NewSharded(ix, n)

	// Shard 0: dead primary + live replica; shard 1: single live server.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	_ = deadLn.Close()
	live0, _ := startShardServer(t, NewShardService(sh.Shard(0), 0, n), nil)
	live1, _ := startShardServer(t, NewShardService(sh.Shard(1), 1, n), nil)

	groups := []*rpc.Group{
		rpc.NewGroup([]*rpc.Client{
			rpc.NewClient(deadAddr, testClientOptions()),
			rpc.NewClient(live0, testClientOptions()),
		}, rpc.GroupOptions{}),
		rpc.NewGroup([]*rpc.Client{rpc.NewClient(live1, testClientOptions())}, rpc.GroupOptions{}),
	}
	rs, err := NewRemoteSharded(context.Background(), groups)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	q := Combine(Term{Text: "cable"}, Term{Text: "bay"})
	res, pi, err := evalDegraded(rs, q, 10, DegradeOptions{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if pi.Degraded() {
		t.Fatalf("failover surfaced as degradation: %+v", pi)
	}
	want := rank(t, NewShardedSearcher(sh), q, 10)
	if len(res) != len(want) {
		t.Fatalf("%d results, want %d", len(res), len(want))
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("rank %d: failover result (%d,%v) != (%d,%v)",
				i, res[i].Doc, res[i].Score, want[i].Doc, want[i].Score)
		}
	}
	if fo := groups[0].Stats().Failovers; fo == 0 {
		t.Fatal("no failover recorded on the replica group")
	}
}

// TestRemoteHandshakeRejectsMisconfiguredShard: a group answering with
// the wrong shard index must fail construction, not scoring.
func TestRemoteHandshakeRejectsMisconfiguredShard(t *testing.T) {
	ix := buildShardCorpus(40, 31)
	sh := index.NewSharded(ix, 2)
	// Both groups point at shard 0's server.
	addr, _ := startShardServer(t, NewShardService(sh.Shard(0), 0, 2), nil)
	groups := []*rpc.Group{
		rpc.NewGroup([]*rpc.Client{rpc.NewClient(addr, testClientOptions())}, rpc.GroupOptions{}),
		rpc.NewGroup([]*rpc.Client{rpc.NewClient(addr, testClientOptions())}, rpc.GroupOptions{}),
	}
	if _, err := NewRemoteSharded(context.Background(), groups); err == nil {
		t.Fatal("handshake accepted a group serving the wrong shard")
	} else if !strings.Contains(err.Error(), "serves shard") {
		t.Fatalf("unexpected handshake error: %v", err)
	}
}

// TestRemoteServerErrorDropsShardExactly: a deterministic application
// error from one shard's eval (not a transport fault) is dropped
// without retry under AllowPartial — PR 5's exact tier again.
func TestRemoteServerErrorDropsShardExactly(t *testing.T) {
	ix := buildShardCorpus(70, 37)
	const n, bad = 2, 0
	sh := index.NewSharded(ix, n)
	groups := make([]*rpc.Group, n)
	for i := 0; i < n; i++ {
		svc := NewShardService(sh.Shard(i), i, n)
		var wrap func(*rpc.Server)
		if i == bad {
			wrap = func(srv *rpc.Server) {
				srv.Handle(MethodEval, func(ctx context.Context, body json.RawMessage) (any, error) {
					return nil, errors.New("shard wedged")
				})
			}
		}
		addr, _ := startShardServer(t, svc, wrap)
		groups[i] = rpc.NewGroup([]*rpc.Client{rpc.NewClient(addr, testClientOptions())}, rpc.GroupOptions{})
	}
	rs, err := NewRemoteSharded(context.Background(), groups)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	q := Term{Text: "cable"}
	res, pi, err := evalDegraded(rs, q, 5, DegradeOptions{AllowPartial: true, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pi.DroppedShards) != 1 || pi.DroppedShards[0] != bad {
		t.Fatalf("dropped = %v, want [%d]", pi.DroppedShards, bad)
	}
	if pi.Retries != 0 {
		t.Fatalf("deterministic server error was retried %d times", pi.Retries)
	}
	if !strings.Contains(pi.ShardErrors[0], "shard wedged") {
		t.Fatalf("shard error lost its cause: %q", pi.ShardErrors[0])
	}
	if len(res) == 0 {
		t.Fatal("no results from the surviving shard")
	}
}

// TestShardEvalRejectsMalformedFrames: shard.eval answers a frame no
// well-formed coordinator sends with a terminal ServerError instead of
// scoring it — an out-of-range model used to fall through to Dirichlet
// and hand a version-skewed coordinator a silently mis-scored shard.
func TestShardEvalRejectsMalformedFrames(t *testing.T) {
	ix := buildShardCorpus(40, 3)
	addr, _ := startShardServer(t, NewShardService(index.NewSharded(ix, 1).Shard(0), 0, 1), nil)
	g := rpc.NewGroup([]*rpc.Client{rpc.NewClient(addr, testClientOptions())}, rpc.GroupOptions{})
	defer g.Close()
	call := func(req any) (*EvalResponse, error) {
		out, err := g.Call(context.Background(), MethodEval, req, func() any { return &EvalResponse{} })
		if err != nil {
			return nil, err
		}
		return out.(*EvalResponse), nil
	}

	wq, err := EncodeNode(Term{Text: "cable"})
	if err != nil {
		t.Fatal(err)
	}
	good := EvalRequest{
		Query: wq, K: 5, Model: int(ModelBM25), Mu: 2500, Lambda: 0.4, K1: 1.2, B: 0.75,
		NumDocs: ix.NumDocs(), TotalToks: ix.TotalTokens(),
		Overrides: []LeafOverride{{CF: 30, DF: 20, CollProb: 0.05}},
	}
	if resp, err := call(good); err != nil || len(resp.Results) == 0 {
		t.Fatalf("well-formed frame: %v, %+v", err, resp)
	}
	goodJSON, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	with := func(edit func(*EvalRequest)) EvalRequest {
		req := good
		edit(&req)
		return req
	}
	for name, req := range map[string]any{
		"model past the last": with(func(r *EvalRequest) { r.Model = int(ModelBM25) + 1 }),
		"negative model":      with(func(r *EvalRequest) { r.Model = -1 }),
		"negative num_docs":   with(func(r *EvalRequest) { r.NumDocs = -1 }),
		"negative total_toks": with(func(r *EvalRequest) { r.TotalToks = -1 }),
		// JSON cannot carry NaN or ±Inf; an overflowing literal is how a
		// non-finite parameter would arrive.
		"non-finite mu": json.RawMessage(strings.Replace(string(goodJSON), `"mu":2500`, `"mu":1e999`, 1)),
	} {
		_, err := call(req)
		var se *rpc.ServerError
		if !errors.As(err, &se) || rpc.IsTransport(err) {
			t.Errorf("%s: err = %v, want a terminal rpc.ServerError", name, err)
		}
	}
}
