package rpc

import (
	"context"
	"errors"
	"sync"
)

// GroupOptions parameterise a replica Group. It has no fields; it stays
// only because bench/ constructs it (ROADMAP item 1 (a)).
type GroupOptions struct{}

// GroupStats are a group's monotonic counters.
type GroupStats struct {
	// Calls counts Call invocations on the group.
	Calls int64
	// Failovers counts replicas abandoned for the next one after a
	// transport error.
	Failovers int64
}

// Group fans calls over a replica set serving the same shard. A call
// walks the replicas in order on the caller's goroutine: a transport
// error fails over to the next. An application error (*ServerError) is
// terminal — the shard answered, and a twin would answer the same.
type Group struct {
	replicas []*Client

	mu    sync.Mutex
	stats GroupStats
}

// NewGroup builds a group over the given replica clients; replicas must
// be non-empty.
func NewGroup(replicas []*Client, _ GroupOptions) *Group {
	if len(replicas) == 0 {
		panic("rpc: NewGroup with no replicas")
	}
	return &Group{replicas: append([]*Client(nil), replicas...)}
}

// Stats snapshots the group's counters.
func (g *Group) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Close closes every replica client.
func (g *Group) Close() {
	for _, c := range g.replicas {
		c.Close()
	}
}

// Call invokes method across the replica set, decoding the response into
// out (nil discards it). It returns the first replica's error when every
// replica failed, and ctx's error once ctx is done.
func (g *Group) Call(ctx context.Context, method string, req, out any) error {
	g.mu.Lock()
	g.stats.Calls++
	g.mu.Unlock()
	var firstErr error
	for i, c := range g.replicas {
		if i > 0 {
			g.mu.Lock()
			g.stats.Failovers++
			g.mu.Unlock()
		}
		err := c.Call(ctx, method, req, out)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var se *ServerError
		if errors.As(err, &se) {
			return err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
