// Package rpc is the wire layer of multi-node serving: a minimal
// framed-message RPC over TCP connecting the search coordinator to
// shard-server processes (see search.RemoteSharded and cmd/sqe-serve's
// shard/coordinator modes). The repo takes no dependencies, so the
// protocol is deliberately small and binary:
//
//	frame    := length(uint32, big-endian) payload(length bytes)
//	request  := WireVersion  uvarint(len(method)) method  body
//	response := WireVersion  0x00  body
//	          | WireVersion  0x01  uvarint(len(code)) code  uvarint(len(message)) message
//
// A frame goes out in one Write. A connection carries a sequence of
// request/response round trips in lock step (no multiplexing — the
// coordinator pools connections instead, which keeps both ends
// trivially correct).
//
// A body is a value's AppendBinary output when it has that method (the
// shape of encoding.BinaryAppender) and is decoded with
// encoding.BinaryUnmarshaler; the search package's shard messages carry
// floats as their raw IEEE-754 bits, so statistics and scores cross the
// wire without loss. Any other value is JSON. That fallback, and
// Handler's json.RawMessage parameter, exist only because bench/
// registers and calls a JSON handler; they go once ROADMAP item 1 (a)
// unbinds bench/.
//
// A peer speaking another wire version — the JSON envelope this format
// replaced starts its payload with '{' — is refused, never retried: a
// server closes the connection without a reply, and a client gets
// ErrWireVersion. A mixed-version topology therefore fails at the
// coordinator's handshake, at boot.
//
// Failure handling is layered the same way the single-process engine
// layers it:
//
//   - Client.Call applies a per-attempt timeout and retries transport
//     errors (refused connections, timeouts, truncated frames) a
//     bounded number of times with linear backoff. Every registered
//     method is a pure read, so retrying after an ambiguous failure is
//     safe.
//   - Group fans a call over a replica set: sequential failover on
//     error, on the caller's goroutine.
//   - Application errors (a handler returning an error) come back as
//     *ServerError and are never retried or failed over: the replica
//     answered; asking again or asking a twin would answer the same.
//   - Cancelling the caller's context ends a call in flight: the
//     connection's deadline moves to now, and the call returns.
//
// The fault points rpc.client_call and rpc.server_handle let the chaos
// harness inject refused/slow/truncated calls deterministically.
package rpc

import (
	"context"
	"encoding"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/fault"
)

// MaxFrame caps a frame's payload size (default 64 MiB). A frame header
// announcing more than this is treated as a corrupt stream, not an
// allocation request.
const MaxFrame = 64 << 20

// WireVersion is the first byte of every payload. It changes whenever a
// message body does, so that peers speaking different bodies fail at the
// handshake instead of misreading each other's frames.
const WireVersion byte = 3

// Response status bytes.
const (
	statusOK    byte = 0
	statusError byte = 1
)

// ErrWireVersion is the error a client returns when the server's reply
// is not in this package's wire format. It is terminal: asking the same
// server again gets the same answer.
var ErrWireVersion = errors.New("rpc: peer speaks another wire version")

// startFrame resets buf to a frame holding only its length header (to be
// filled in by sendFrame) and the version byte.
func startFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0, WireVersion) }

// sendFrame fills in frame's length header and writes it in one Write.
func sendFrame(w io.Writer, frame []byte) error {
	n := len(frame) - 4
	if n > MaxFrame {
		return fmt.Errorf("rpc: frame of %d bytes exceeds MaxFrame", n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// appendString appends s with its uvarint length prefix.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// cutString splits a uvarint-length-prefixed string off the front of p.
func cutString(p []byte) (s, rest []byte, ok bool) {
	n, k := binary.Uvarint(p)
	if k <= 0 || n > uint64(len(p)-k) {
		return nil, nil, false
	}
	return p[k : k+int(n)], p[k+int(n):], true
}

// binaryAppender is encoding.BinaryAppender, spelled out because that
// interface is newer than the go line in go.mod.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// appendBody appends v's encoding to b: AppendBinary when v has it, JSON
// otherwise (see the package comment for why JSON remains).
func appendBody(b []byte, v any) ([]byte, error) {
	if a, ok := v.(binaryAppender); ok {
		return a.AppendBinary(b)
	}
	j, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, j...), nil
}

// decodeBody is appendBody's inverse.
func decodeBody(body []byte, out any) error {
	if u, ok := out.(encoding.BinaryUnmarshaler); ok {
		return u.UnmarshalBinary(body)
	}
	return json.Unmarshal(body, out)
}

// readFrame reads one length-prefixed payload.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("rpc: frame header announces %d bytes, exceeding MaxFrame", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// appendError appends an error response's status, code and message to
// a started frame.
func appendError(frame []byte, code, message string) []byte {
	return appendString(appendString(append(frame, statusError), code), message)
}

// ServerError is an application-level error returned by the remote
// handler. It is terminal for the call: the server processed the
// request and answered — retrying or failing over to a replica would
// produce the same answer.
type ServerError struct {
	Code    string
	Message string
}

// Error implements error.
func (e *ServerError) Error() string {
	return fmt.Sprintf("rpc: server error %s: %s", e.Code, e.Message)
}

// TransportError is a transport-level failure: dial refused, attempt
// deadline exceeded, connection reset, truncated or corrupt frame. The
// remote may or may not have seen the request; since every method is a
// pure read, the client retries these.
type TransportError struct {
	Addr string
	Op   string // "dial", "send", "recv"
	Err  error
}

// Error implements error.
func (e *TransportError) Error() string {
	return fmt.Sprintf("rpc: %s %s: %v", e.Op, e.Addr, e.Err)
}

// Unwrap exposes the underlying cause (net.Error, context errors, …).
func (e *TransportError) Unwrap() error { return e.Err }

// IsTransport reports whether err is (or wraps) a transport failure —
// the class the degradation layer maps to a dead/slow replica.
func IsTransport(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

// Handler serves one method: decode the raw body, do the work, return a
// result to be encoded like a request body (or an error, which crosses
// the wire as a ServerError).
type Handler func(ctx context.Context, body Body) (any, error)

// Body is a request body as the client encoded it. It is
// json.RawMessage rather than []byte only because bench/ registers a
// Handler literal with that parameter type; it becomes []byte once
// ROADMAP item 1 (a) unbinds bench/.
type Body = json.RawMessage

// Server dispatches framed requests to registered handlers. Construct
// with NewServer, register with Handle, then Serve a listener.
type Server struct {
	mu       sync.Mutex
	handlers map[string]Handler
	conns    map[net.Conn]struct{}
	ln       net.Listener
	closed   bool
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]Handler),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Handle registers h for method; registering after Serve started is not
// synchronised and must be completed first.
func (s *Server) Handle(method string, h Handler) { s.handlers[method] = h }

// Serve accepts connections on ln until Close. Each connection is
// served by its own goroutine, one request at a time.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops accepting and closes every open connection.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
}

// serveConn runs the request/response loop of one connection.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	// The response frame is built in one buffer the connection reuses.
	var frame []byte
	for {
		payload, err := readFrame(conn)
		if err != nil {
			return // client went away or stream corrupt; nothing to answer
		}
		if len(payload) == 0 || payload[0] != WireVersion {
			return // another wire version: it could not read our reply
		}
		method, body, ok := cutString(payload[1:])
		if !ok {
			_ = sendFrame(conn, appendError(startFrame(frame), "bad_request", "rpc: malformed method name"))
			return
		}
		frame = s.dispatch(startFrame(frame), method, body)
		if err := sendFrame(conn, frame); err != nil {
			return
		}
	}
}

// dispatch runs one request through the fault hook and its handler and
// appends the response to the started frame, containing handler panics
// into error responses so one bad request cannot kill the shard process.
func (s *Server) dispatch(frame, method, body []byte) (resp []byte) {
	defer func() {
		if v := recover(); v != nil {
			resp = appendError(frame, "panic", fmt.Sprint(v))
		}
	}()
	if err := fault.Check(fault.RPCServer); err != nil {
		return appendError(frame, "injected_fault", err.Error())
	}
	h, ok := s.handlers[string(method)]
	if !ok {
		return appendError(frame, "unknown_method", fmt.Sprintf("no handler for %q", method))
	}
	out, err := h(context.Background(), body)
	if err != nil {
		return appendError(frame, "handler_error", err.Error())
	}
	resp, err = appendBody(append(frame, statusOK), out)
	if err != nil {
		return appendError(frame, "encode_error", err.Error())
	}
	return resp
}

// ClientOptions parameterise a Client; zero values select the noted
// defaults.
type ClientOptions struct {
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// CallTimeout bounds each call attempt end to end — send + wait +
	// receive (default 5s). The caller's context can tighten it further.
	CallTimeout time.Duration
	// MaxRetries re-runs a call that failed with a transport error up
	// to this many extra times (default 1; negative disables).
	MaxRetries int
	// RetryBackoff is the base delay between retries; attempt i waits
	// i×RetryBackoff (default 2ms).
	RetryBackoff time.Duration
	// MaxIdleConns bounds the pooled idle connections (default 4).
	MaxIdleConns int
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 5 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 1
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 2 * time.Millisecond
	}
	if o.MaxIdleConns == 0 {
		o.MaxIdleConns = 4
	}
	return o
}

// CallStats are a client's monotonic counters.
type CallStats struct {
	// Calls counts Call invocations (not attempts).
	Calls int64
	// Attempts counts wire attempts, including retries.
	Attempts int64
	// Retries counts re-attempts after transport errors.
	Retries int64
	// Failures counts Calls that ultimately failed.
	Failures int64
}

// Client calls one address. Safe for concurrent use; connections are
// pooled per client.
type Client struct {
	addr string
	opts ClientOptions

	mu    sync.Mutex
	idle  []net.Conn
	stats CallStats
}

// NewClient returns a client for addr. No connection is made until the
// first Call.
func NewClient(addr string, opts ClientOptions) *Client {
	return &Client{addr: addr, opts: opts.withDefaults()}
}

// Stats snapshots the client's counters.
func (c *Client) Stats() CallStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close drops every pooled connection.
func (c *Client) Close() {
	c.mu.Lock()
	for _, conn := range c.idle {
		_ = conn.Close()
	}
	c.idle = nil
	c.mu.Unlock()
}

// getConn pops a pooled connection or dials a fresh one.
func (c *Client) getConn(ctx context.Context) (net.Conn, bool, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, true, nil
	}
	c.mu.Unlock()
	d := net.Dialer{Timeout: c.opts.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, false, &TransportError{Addr: c.addr, Op: "dial", Err: err}
	}
	return conn, false, nil
}

// putConn returns a healthy connection to the pool (or closes it when
// the pool is full).
func (c *Client) putConn(conn net.Conn) {
	c.mu.Lock()
	if len(c.idle) < c.opts.MaxIdleConns {
		c.idle = append(c.idle, conn)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	_ = conn.Close()
}

// Call invokes method with req, decoding the response body into out
// (which may be nil to discard it). A nil req sends an empty body.
// Transport failures are retried up to MaxRetries times; *ServerError
// and ErrWireVersion are terminal.
func (c *Client) Call(ctx context.Context, method string, req any, out any) error {
	c.mu.Lock()
	c.stats.Calls++
	c.mu.Unlock()
	var err error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
			if c.opts.RetryBackoff > 0 {
				t := time.NewTimer(time.Duration(attempt) * c.opts.RetryBackoff)
				cancelled := false
				select {
				case <-ctx.Done():
					t.Stop()
					err = ctx.Err()
					cancelled = true
				case <-t.C:
				}
				if cancelled {
					break
				}
			}
		}
		err = c.attempt(ctx, method, req, out)
		if err == nil || !IsTransport(err) || ctx.Err() != nil {
			break
		}
	}
	if err != nil {
		c.mu.Lock()
		c.stats.Failures++
		c.mu.Unlock()
	}
	return err
}

// attempt runs one wire attempt under the per-attempt timeout. A
// pooled connection that fails on send is assumed stale (the server
// may have closed it between calls) and the attempt is re-run once on
// a fresh connection before the failure counts.
func (c *Client) attempt(ctx context.Context, method string, req any, out any) error {
	c.mu.Lock()
	c.stats.Attempts++
	c.mu.Unlock()
	if err := fault.Check(fault.RPCClient); err != nil {
		return &TransportError{Addr: c.addr, Op: "send", Err: err}
	}
	frame := appendString(startFrame(nil), method)
	if req != nil {
		var err error
		if frame, err = appendBody(frame, req); err != nil {
			return fmt.Errorf("rpc: encode request: %w", err)
		}
	}
	for {
		conn, pooled, err := c.getConn(ctx)
		if err != nil {
			return err
		}
		err = c.roundTrip(ctx, conn, frame, out)
		if err == nil {
			c.putConn(conn)
			return nil
		}
		_ = conn.Close()
		// A stale pooled connection surfaces as an immediate transport
		// error; retry the attempt once on a fresh dial before failing.
		if pooled && IsTransport(err) && ctx.Err() == nil {
			pooledRetry := &TransportError{}
			if errors.As(err, &pooledRetry) && pooledRetry.Op != "dial" {
				continue
			}
		}
		return err
	}
}

// roundTrip writes one frame and reads one response on conn, under the
// attempt deadline. Cancelling ctx moves the deadline to now, so a
// cancel-only context ends the round trip as promptly as a deadline.
func (c *Client) roundTrip(ctx context.Context, conn net.Conn, frame []byte, out any) error {
	deadline := time.Now().Add(c.opts.CallTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return &TransportError{Addr: c.addr, Op: "send", Err: err}
	}
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Now()) })
	defer stop()
	if err := sendFrame(conn, frame); err != nil {
		return &TransportError{Addr: c.addr, Op: "send", Err: err}
	}
	resp, err := readFrame(conn)
	if err != nil {
		return &TransportError{Addr: c.addr, Op: "recv", Err: err}
	}
	if len(resp) > 0 && resp[0] != WireVersion {
		return fmt.Errorf("rpc: recv %s: %w (payload starts with %q)", c.addr, ErrWireVersion, resp[0])
	}
	if len(resp) < 2 {
		return &TransportError{Addr: c.addr, Op: "recv", Err: errors.New("short response payload")}
	}
	switch body := resp[2:]; resp[1] {
	case statusOK:
		if out == nil {
			return nil
		}
		if err := decodeBody(body, out); err != nil {
			return &TransportError{Addr: c.addr, Op: "recv", Err: fmt.Errorf("decode response body: %w", err)}
		}
		return nil
	case statusError:
		code, rest, ok1 := cutString(body)
		msg, rest, ok2 := cutString(rest)
		if !ok1 || !ok2 || len(rest) != 0 {
			return &TransportError{Addr: c.addr, Op: "recv", Err: errors.New("malformed error response")}
		}
		return &ServerError{Code: string(code), Message: string(msg)}
	default:
		return &TransportError{Addr: c.addr, Op: "recv", Err: fmt.Errorf("unknown response status %d", resp[1])}
	}
}
