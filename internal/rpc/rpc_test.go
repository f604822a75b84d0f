package rpc

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// startServer boots a Server on an ephemeral port and returns its
// address; handlers are registered by the caller before Serve via the
// setup callback.
func startServer(t *testing.T, setup func(*Server)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	if setup != nil {
		setup(s)
	}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(s.Close)
	return ln.Addr().String()
}

type echoReq struct {
	X float64 `json:"x"`
	S string  `json:"s"`
}

func echoHandler(ctx context.Context, body json.RawMessage) (any, error) {
	var req echoReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return req, nil
}

func TestCallRoundTripPreservesFloats(t *testing.T) {
	addr := startServer(t, func(s *Server) { s.Handle("echo", echoHandler) })
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	// A float with no short decimal representation must round-trip
	// bit-exactly through the JSON fallback too.
	in := echoReq{X: 0.1 + 0.2, S: "motif"}
	var out echoReq
	if err := c.Call(context.Background(), "echo", in, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip changed payload: got %+v want %+v", out, in)
	}
	if st := c.Stats(); st.Calls != 1 || st.Attempts != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want 1 call, 1 attempt, 0 retries", st)
	}
}

func TestCallReusesPooledConnection(t *testing.T) {
	var conns int32
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	s.Handle("echo", echoHandler)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			atomic.AddInt32(&conns, 1)
			go s.serveConn(conn)
		}
	}()
	t.Cleanup(func() { _ = ln.Close(); s.Close() })

	c := NewClient(ln.Addr().String(), ClientOptions{})
	defer c.Close()
	for i := 0; i < 5; i++ {
		var out echoReq
		if err := c.Call(context.Background(), "echo", echoReq{X: float64(i)}, &out); err != nil {
			t.Fatal(err)
		}
	}
	if n := atomic.LoadInt32(&conns); n != 1 {
		t.Fatalf("5 sequential calls used %d connections, want 1 (pooling broken)", n)
	}
}

func TestServerErrorIsTerminal(t *testing.T) {
	var handled int32
	addr := startServer(t, func(s *Server) {
		s.Handle("fail", func(ctx context.Context, body json.RawMessage) (any, error) {
			atomic.AddInt32(&handled, 1)
			return nil, errors.New("no such shard")
		})
	})
	c := NewClient(addr, ClientOptions{MaxRetries: 3})
	defer c.Close()

	err := c.Call(context.Background(), "fail", nil, nil)
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ServerError", err)
	}
	if se.Code != "handler_error" || se.Message != "no such shard" {
		t.Fatalf("server error = %+v", se)
	}
	if IsTransport(err) {
		t.Fatal("ServerError classified as transport")
	}
	if n := atomic.LoadInt32(&handled); n != 1 {
		t.Fatalf("handler ran %d times, want 1 (application errors must not retry)", n)
	}
}

func TestUnknownMethod(t *testing.T) {
	addr := startServer(t, func(s *Server) { s.Handle("echo", echoHandler) })
	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	err := c.Call(context.Background(), "nope", nil, nil)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != "unknown_method" {
		t.Fatalf("err = %v, want ServerError{unknown_method}", err)
	}
}

func TestHandlerPanicContained(t *testing.T) {
	addr := startServer(t, func(s *Server) {
		s.Handle("boom", func(ctx context.Context, body json.RawMessage) (any, error) {
			panic("kaput")
		})
		s.Handle("echo", echoHandler)
	})
	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	err := c.Call(context.Background(), "boom", nil, nil)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != "panic" {
		t.Fatalf("err = %v, want ServerError{panic}", err)
	}
	// The connection and the server survive the panic.
	var out echoReq
	if err := c.Call(context.Background(), "echo", echoReq{S: "alive"}, &out); err != nil {
		t.Fatalf("server dead after contained panic: %v", err)
	}
}

func TestRefusedConnectionIsTransportAndRetried(t *testing.T) {
	// Grab an ephemeral port and close it: connections are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	c := NewClient(addr, ClientOptions{MaxRetries: 2, RetryBackoff: time.Millisecond})
	defer c.Close()
	err = c.Call(context.Background(), "echo", nil, nil)
	if !IsTransport(err) {
		t.Fatalf("refused connection: err = %v, want transport error", err)
	}
	var te *TransportError
	if !errors.As(err, &te) || te.Op != "dial" {
		t.Fatalf("err = %v, want dial transport error", err)
	}
	if st := c.Stats(); st.Attempts != 3 || st.Retries != 2 || st.Failures != 1 {
		t.Fatalf("stats = %+v, want 3 attempts / 2 retries / 1 failure", st)
	}
}

func TestAttemptTimeoutIsTransport(t *testing.T) {
	// A server that accepts and reads but never answers.
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
				buf := make([]byte, 1024)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()

	c := NewClient(ln.Addr().String(), ClientOptions{
		CallTimeout:  30 * time.Millisecond,
		MaxRetries:   1,
		RetryBackoff: time.Millisecond,
	})
	defer c.Close()
	start := time.Now()
	err = c.Call(context.Background(), "echo", nil, nil)
	if !IsTransport(err) {
		t.Fatalf("timeout: err = %v, want transport error", err)
	}
	var te *TransportError
	if !errors.As(err, &te) || te.Op != "recv" {
		t.Fatalf("err = %v, want recv transport error", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want wrapped net timeout", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("two 30ms attempts took %v", el)
	}
	if st := c.Stats(); st.Attempts != 2 {
		t.Fatalf("stats = %+v, want 2 attempts", st)
	}
}

func TestMidStreamTruncationIsTransport(t *testing.T) {
	// A server that sends half a frame header and closes.
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
				if _, err := readFrame(conn); err == nil {
					// Announce a 100-byte payload, deliver 3 bytes, hang up.
					var hdr [4]byte
					binary.BigEndian.PutUint32(hdr[:], 100)
					_, _ = conn.Write(hdr[:])
					_, _ = conn.Write([]byte{1, 2, 3})
				}
				_ = conn.Close()
			}()
		}
	}()

	c := NewClient(ln.Addr().String(), ClientOptions{MaxRetries: 1, RetryBackoff: time.Millisecond})
	defer c.Close()
	err = c.Call(context.Background(), "echo", echoReq{}, nil)
	if !IsTransport(err) {
		t.Fatalf("truncation: err = %v, want transport error", err)
	}
	var te *TransportError
	if !errors.As(err, &te) || te.Op != "recv" {
		t.Fatalf("err = %v, want recv transport error", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	// A server that announces a frame beyond MaxFrame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = readFrame(conn)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
		_, _ = conn.Write(hdr[:])
	}()

	c := NewClient(ln.Addr().String(), ClientOptions{MaxRetries: -1})
	defer c.Close()
	err = c.Call(context.Background(), "echo", nil, nil)
	if !IsTransport(err) {
		t.Fatalf("oversized frame: err = %v, want transport error", err)
	}
}

func TestCallHonorsContextCancellation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	// Long backoff + cancelled context: Call must return promptly with
	// the context error instead of sleeping out its retry schedule.
	c := NewClient(addr, ClientOptions{MaxRetries: 5, RetryBackoff: time.Hour})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Call(ctx, "echo", nil, nil) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Call succeeded against a closed port")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call did not return after context cancellation")
	}
}

func TestGroupFailoverOnRefused(t *testing.T) {
	// Replica 0 refuses; replica 1 answers.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	_ = dead.Close()
	liveAddr := startServer(t, func(s *Server) { s.Handle("echo", echoHandler) })

	deadClient := NewClient(deadAddr, ClientOptions{MaxRetries: -1})
	liveClient := NewClient(liveAddr, ClientOptions{})
	g := NewGroup([]*Client{deadClient, liveClient}, GroupOptions{})
	defer g.Close()

	var out echoReq
	if err := g.Call(context.Background(), "echo", echoReq{S: "failover"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.S; got != "failover" {
		t.Fatalf("got %q from failover replica", got)
	}
	if d, l := deadClient.Stats(), liveClient.Stats(); d.Failures != 1 || l.Calls != 1 {
		t.Fatalf("replica stats dead=%+v live=%+v, want one failure then one call", d, l)
	}
}

func TestGroupAllReplicasDownReturnsFirstError(t *testing.T) {
	var addrs []*Client
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		_ = ln.Close()
		addrs = append(addrs, NewClient(addr, ClientOptions{MaxRetries: -1}))
	}
	g := NewGroup(addrs, GroupOptions{})
	defer g.Close()
	err := g.Call(context.Background(), "echo", nil, nil)
	if !IsTransport(err) {
		t.Fatalf("all replicas down: err = %v, want transport error", err)
	}
}

// TestGroupCallHonorsCancellation: a group call whose context is
// cancelled while the replica holds the request unanswered returns
// promptly with the context's error, without trying the next replica.
func TestGroupCallHonorsCancellation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var second int32
	stuck := startServer(t, func(s *Server) {
		s.Handle("echo", func(ctx context.Context, body json.RawMessage) (any, error) {
			<-release
			return echoReq{}, nil
		})
	})
	twin := startServer(t, func(s *Server) {
		s.Handle("echo", func(ctx context.Context, body json.RawMessage) (any, error) {
			atomic.AddInt32(&second, 1)
			return echoReq{}, nil
		})
	})
	g := NewGroup([]*Client{
		NewClient(stuck, ClientOptions{CallTimeout: time.Minute}),
		NewClient(twin, ClientOptions{}),
	}, GroupOptions{})
	defer g.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Call(ctx, "echo", echoReq{}, &echoReq{}) }()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("cancelled call took %v to return", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("group call did not return after its context was cancelled")
	}
	if n := atomic.LoadInt32(&second); n != 0 {
		t.Fatalf("the twin handled %d calls after the caller cancelled", n)
	}
}

func TestGroupServerErrorNotFailedOver(t *testing.T) {
	var secondary int32
	failing := startServer(t, func(s *Server) {
		s.Handle("echo", func(ctx context.Context, body json.RawMessage) (any, error) {
			return nil, fmt.Errorf("bad query")
		})
	})
	other := startServer(t, func(s *Server) {
		s.Handle("echo", func(ctx context.Context, body json.RawMessage) (any, error) {
			atomic.AddInt32(&secondary, 1)
			return echoReq{}, nil
		})
	})
	g := NewGroup([]*Client{
		NewClient(failing, ClientOptions{}),
		NewClient(other, ClientOptions{}),
	}, GroupOptions{})
	defer g.Close()
	err := g.Call(context.Background(), "echo", nil, &echoReq{})
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want ServerError", err)
	}
	if n := atomic.LoadInt32(&secondary); n != 0 {
		t.Fatalf("secondary handled %d calls after a deterministic application error", n)
	}
}

// binBody is a body with its own binary codec: it crosses as its bytes.
type binBody []byte

func (b binBody) AppendBinary(p []byte) ([]byte, error) { return append(p, b...), nil }

func (b *binBody) UnmarshalBinary(p []byte) error {
	*b = append((*b)[:0], p...)
	return nil
}

// TestBodyEncoding pins what a handler receives: a value with
// AppendBinary crosses as its bytes, a nil request as no bytes, and
// anything else as JSON — the fallback bench/ binds, calling a
// json.RawMessage handler with struct{}{}.
func TestBodyEncoding(t *testing.T) {
	addr := startServer(t, func(s *Server) {
		s.Handle("body", func(ctx context.Context, body json.RawMessage) (any, error) {
			return binBody(body), nil
		})
		s.Handle("bench.echo", func(context.Context, json.RawMessage) (any, error) { return struct{}{}, nil })
	})
	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	jsonReq := echoReq{X: 0.1 + 0.2, S: "motif"}
	wantJSON, _ := json.Marshal(jsonReq)
	for _, tc := range []struct {
		name string
		req  any
		want []byte
	}{
		{"binary", binBody{0, '{', 0xff}, []byte{0, '{', 0xff}},
		{"nil", nil, nil},
		{"json", jsonReq, wantJSON},
		{"empty struct", struct{}{}, []byte("{}")},
	} {
		var got binBody
		if err := c.Call(context.Background(), "body", tc.req, &got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != string(tc.want) {
			t.Fatalf("%s: handler got body %q, want %q", tc.name, got, tc.want)
		}
	}
	var out struct{}
	if err := c.Call(context.Background(), "bench.echo", struct{}{}, &out); err != nil {
		t.Fatalf("JSON handler and reply: %v", err)
	}
}

// TestJSONEraClientGetsNoReply: a frame in the JSON envelope this wire
// replaced gets no answer it could misread — the server closes that
// connection — and the server goes on serving well-formed ones.
func TestJSONEraClientGetsNoReply(t *testing.T) {
	addr := startServer(t, func(s *Server) { s.Handle("echo", echoHandler) })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	legacy := []byte(`{"method":"echo","body":{"x":1,"s":"old"}}`)
	if _, err := conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(legacy))), legacy...)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("JSON frame: read %d bytes, err %v; want the connection closed with no reply", n, err)
	}

	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	var out echoReq
	if err := c.Call(context.Background(), "echo", echoReq{S: "new"}, &out); err != nil || out.S != "new" {
		t.Fatalf("well-formed call after a JSON frame: %+v, %v", out, err)
	}
}
