package search

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync/atomic"
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
	res, ev, err := evalOne(context.Background(), d, q, k, EvalOptions{Degrade: &opts})
	return res, ev.Partial, err
}

// TestRemoteShardedStatsMatchInProcess checks every deterministic
// evaluator counter survives the wire (the pruning and heap counters
// included, which the coordinator contract compares only in process):
// remote stats must equal in-process sharded stats counter for counter.
func TestRemoteShardedStatsMatchInProcess(t *testing.T) {
	ix := skewedIndex(150, 21)
	rs, ss := bootRemote(t, ix, 4)
	q := Combine(Term{Text: "a"}, Term{Text: "b"}, Term{Text: "c"})
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
	ix := skewedIndex(100, 5)
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

	q := Combine(Term{Text: "a"}, Term{Text: "b"}, Term{Text: "d"})
	res, pi, err := evalDegraded(rs, q, k, DegradeOptions{ShardDeadline: 50 * time.Millisecond})
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
	full := rank(t, NewSearcher(ix), q, ix.NumDocs())
	var want []Result
	for _, r := range full {
		if int(r.Doc)%n != slow {
			want = append(want, r)
		}
	}
	sameResults(t, "partial merge", res, want[:min(k, len(want))])
}

// TestRemoteDeadShardDegradesAtStatsPhase maps a refused connection (the
// shard process is gone) to the stats-phase exclusion tier: the query
// degrades, the drop is labelled as stats-phase, and the surviving
// shards still answer deterministically.
func TestRemoteDeadShardDegradesAtStatsPhase(t *testing.T) {
	ix := skewedIndex(80, 13)
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
	q := Term{Text: "a"}

	// Healthy first: not degraded.
	if _, pi, err := evalDegraded(rs, q, 5, DegradeOptions{}); err != nil || len(pi.DroppedShards) > 0 {
		t.Fatalf("healthy search: err=%v degraded=%v", err, len(pi.DroppedShards) > 0)
	}

	// Kill the shard process (listener + live connections).
	deadSrv.Close()
	groups[dead].Close() // drop pooled connections to the dead server

	res, pi, err := evalDegraded(rs, q, 5, DegradeOptions{MaxRetries: 1})
	if err != nil {
		t.Fatalf("dead shard under degradation: %v", err)
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
	res2, _, err := evalDegraded(rs, q, 5, DegradeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "stats-phase degraded ranking, asked again", res2, res)

	// Without degradation the query must fail outright.
	if _, _, err := evalOne(context.Background(), rs, q, 5, EvalOptions{}); err == nil {
		t.Fatal("dead shard without degradation: expected an error")
	}
}

// fakeShard speaks the framing by hand: for every request frame on every
// connection it calls answer with the payload, and hangs up when answer
// returns false.
func fakeShard(t *testing.T, answer func(conn net.Conn, payload []byte) bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
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
					if _, err := io.ReadFull(conn, hdr[:]); err != nil {
						return
					}
					payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
					if _, err := io.ReadFull(conn, payload); err != nil {
						return
					}
					if !answer(conn, payload) {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// writeFrame writes payload behind its length header.
func writeFrame(conn net.Conn, payload []byte) error {
	_, err := conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...))
	return err
}

// fakeTruncatingShard answers shard.info correctly (so the handshake
// passes), then every later request with a truncated frame — a 200-byte
// header followed by 3 bytes and a close. It models a shard dying
// mid-response.
func fakeTruncatingShard(t *testing.T, shard, numShards int) string {
	t.Helper()
	info, _ := InfoResponse{Shard: shard, NumShards: numShards}.AppendBinary([]byte{rpc.WireVersion, 0})
	infoMethod := append([]byte{rpc.WireVersion, byte(len(MethodInfo))}, MethodInfo...)
	return fakeShard(t, func(conn net.Conn, payload []byte) bool {
		if bytes.Equal(payload, infoMethod) {
			return writeFrame(conn, info) == nil
		}
		_, _ = conn.Write(append(binary.BigEndian.AppendUint32(nil, 200), rpc.WireVersion, 0, 1))
		return false
	})
}

// TestRemoteTruncatedStreamDegrades maps a mid-stream truncation to a
// degraded (dropped-shard) query rather than a failed or corrupt one.
func TestRemoteTruncatedStreamDegrades(t *testing.T) {
	ix := skewedIndex(60, 17)
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

	q := Term{Text: "a"}
	res, pi, err := evalDegraded(rs, q, 5, DegradeOptions{})
	if err != nil {
		t.Fatalf("truncated shard under degradation: %v", err)
	}
	if len(pi.DroppedShards) != 1 || pi.DroppedShards[0] != broken {
		t.Fatalf("dropped shards = %v (%v), want [%d]", pi.DroppedShards, pi.ShardErrors, broken)
	}
	if len(res) == 0 {
		t.Fatal("surviving shard produced no results")
	}

	// Strict mode surfaces the transport error instead.
	_, _, err = evalOne(context.Background(), rs, q, 5, EvalOptions{})
	if err == nil || !rpc.IsTransport(err) {
		t.Fatalf("strict search against truncating shard: err = %v, want transport error", err)
	}
}

// TestRemoteHandshakeRefusesJSONEraShard: a shard still speaking the
// JSON envelope answers the binary handshake the way it answers any
// frame it cannot parse — a JSON error envelope, then a close. The
// coordinator must fail at construction with the typed version error,
// on the first attempt: a retry would get the same answer.
func TestRemoteHandshakeRefusesJSONEraShard(t *testing.T) {
	var frames atomic.Int32
	addr := fakeShard(t, func(conn net.Conn, payload []byte) bool {
		frames.Add(1)
		_ = writeFrame(conn, []byte(`{"ok":false,"error":{"code":"bad_request","message":"invalid character '\x02' looking for beginning of value"}}`))
		return false
	})
	opts := testClientOptions()
	opts.MaxRetries = 3
	groups := []*rpc.Group{rpc.NewGroup([]*rpc.Client{rpc.NewClient(addr, opts)}, rpc.GroupOptions{})}
	defer groups[0].Close()
	_, err := NewRemoteSharded(context.Background(), groups)
	if !errors.Is(err, rpc.ErrWireVersion) {
		t.Fatalf("handshake against a JSON-era shard: err = %v, want rpc.ErrWireVersion", err)
	}
	if rpc.IsTransport(err) {
		t.Fatalf("version skew classified as a retryable transport error: %v", err)
	}
	if n := frames.Load(); n != 1 {
		t.Fatalf("the JSON-era shard saw %d requests, want 1 (version skew must not be retried)", n)
	}
}

// TestRemoteReplicaFailoverMasksDeadPrimary: with a replica group, a
// dead primary is a transport detail, not a degradation — the query
// fails over and stays bit-identical and non-degraded.
func TestRemoteReplicaFailoverMasksDeadPrimary(t *testing.T) {
	ix := skewedIndex(90, 29)
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

	deadReplica := rpc.NewClient(deadAddr, testClientOptions())
	groups := []*rpc.Group{
		rpc.NewGroup([]*rpc.Client{
			deadReplica,
			rpc.NewClient(live0, testClientOptions()),
		}, rpc.GroupOptions{}),
		rpc.NewGroup([]*rpc.Client{rpc.NewClient(live1, testClientOptions())}, rpc.GroupOptions{}),
	}
	rs, err := NewRemoteSharded(context.Background(), groups)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	q := Combine(Term{Text: "a"}, Term{Text: "c"})
	res, pi, err := evalDegraded(rs, q, 10, DegradeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pi.DroppedShards) > 0 {
		t.Fatalf("failover surfaced as degradation: %+v", pi)
	}
	sameResults(t, "failover", res, rank(t, NewShardedSearcher(sh), q, 10))
	if deadReplica.Stats().Failures == 0 {
		t.Fatal("the dead replica recorded no failure: the group never failed over")
	}
}

// TestRemoteHandshakeRejectsMisconfiguredShard: a group answering with
// the wrong shard index must fail construction, not scoring.
func TestRemoteHandshakeRejectsMisconfiguredShard(t *testing.T) {
	ix := skewedIndex(40, 31)
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
// without retry under degradation: the exact (phase-B) tier.
func TestRemoteServerErrorDropsShardExactly(t *testing.T) {
	ix := skewedIndex(70, 37)
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

	q := Term{Text: "a"}
	res, pi, err := evalDegraded(rs, q, 5, DegradeOptions{MaxRetries: 2})
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

// rawBody is a request body sent as-is, for frames no coordinator
// would encode.
type rawBody []byte

func (b rawBody) AppendBinary(p []byte) ([]byte, error) { return append(p, b...), nil }

// TestShardEvalRejectsMalformedFrames: shard.eval answers a frame no
// well-formed coordinator sends with a terminal ServerError instead of
// scoring it — an out-of-range model used to fall through to Dirichlet
// and hand a version-skewed coordinator a silently mis-scored shard, and
// floats crossing as raw bits can carry NaN and ±Inf.
func TestShardEvalRejectsMalformedFrames(t *testing.T) {
	ix := skewedIndex(40, 3)
	addr, _ := startShardServer(t, NewShardService(index.NewSharded(ix, 1).Shard(0), 0, 1), nil)
	g := rpc.NewGroup([]*rpc.Client{rpc.NewClient(addr, testClientOptions())}, rpc.GroupOptions{})
	defer g.Close()
	call := func(req any) (*EvalResponse, error) {
		var out EvalResponse
		if err := g.Call(context.Background(), MethodEval, req, &out); err != nil {
			return nil, err
		}
		return &out, nil
	}

	good := EvalRequest{
		Query: Term{Text: "a"}, K: 5, Model: int(ModelBM25), Mu: 2500, Lambda: 0.4, K1: 1.2, B: 0.75,
		NumDocs: ix.NumDocs(), TotalToks: ix.TotalTokens(),
		Overrides: []LeafOverride{{CF: 30, DF: 20, CollProb: 0.05}},
	}
	if resp, err := call(good); err != nil || len(resp.Results) == 0 {
		t.Fatalf("well-formed frame: %v, %+v", err, resp)
	}
	goodBytes, err := good.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	with := func(edit func(*EvalRequest)) EvalRequest {
		req := good
		req.Overrides = slices.Clone(good.Overrides)
		edit(&req)
		return req
	}
	// A tree one level deeper than the decoder accepts: single-child
	// #weight nodes down to a term.
	var bomb []byte
	for i := 0; i < maxWireDepth; i++ {
		bomb = appendFloat(append(bomb, kindWeighted, 1), 1)
	}
	bomb = good.appendParams(appendString(append(bomb, kindTerm), "cable"))
	for name, req := range map[string]any{
		"model past the last": with(func(r *EvalRequest) { r.Model = int(ModelBM25) + 1 }),
		"negative model":      with(func(r *EvalRequest) { r.Model = -1 }),
		"negative num_docs":   with(func(r *EvalRequest) { r.NumDocs = -1 }),
		"negative total_toks": with(func(r *EvalRequest) { r.TotalToks = -1 }),
		"NaN mu":              with(func(r *EvalRequest) { r.Mu = math.NaN() }),
		"+Inf lambda":         with(func(r *EvalRequest) { r.Lambda = math.Inf(1) }),
		"-Inf b":              with(func(r *EvalRequest) { r.B = math.Inf(-1) }),
		"NaN override df":     with(func(r *EvalRequest) { r.Overrides[0].DF = math.NaN() }),
		"negative coll_prob":  with(func(r *EvalRequest) { r.Overrides[0].CollProb = -0.05 }),
		"+Inf coll_prob":      with(func(r *EvalRequest) { r.Overrides[0].CollProb = math.Inf(1) }),
		"NaN child weight":    with(func(r *EvalRequest) { r.Query = Weight([]float64{math.NaN()}, []Node{Term{Text: "a"}}) }),
		"depth bomb":          rawBody(bomb),
		"oversized count":     rawBody(good.appendParams(binary.AppendUvarint([]byte{kindWeighted}, 1<<40))),
		"unknown node kind":   rawBody(append([]byte{kindWeighted + 1}, goodBytes[1:]...)),
		"truncated frame":     rawBody(goodBytes[:len(goodBytes)/2]),
		"trailing byte":       rawBody(append(slices.Clone(goodBytes), 0)),
		"empty body":          nil,
	} {
		_, err := call(req)
		var se *rpc.ServerError
		if !errors.As(err, &se) || rpc.IsTransport(err) {
			t.Errorf("%s: err = %v, want a terminal rpc.ServerError", name, err)
		}
	}
}
