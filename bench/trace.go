package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the span that caused this one, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same replay code runs with spans off to price them.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// rename relabels a span whose kind is only known once it has run (a
// cache lookup is a hit or a miss after the fact).
func (t *tracer) rename(id int, name string) {
	if t == nil {
		return
	}
	t.spans[id].Name = name
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func (l layerTime) meanUs() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.TotalNs) / float64(l.Count) / 1e3
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap (parallel
// fan-out) or touch; the covered part is the union of their intervals,
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// byLayer sums spans by name.
func byLayer(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := make(map[string]layerTime)
	for i, s := range spans {
		l := out[s.Name]
		l.Count++
		l.TotalNs += s.End - s.Start
		l.SelfNs += self[i]
		out[s.Name] = l
	}
	return out
}

// coverage is the share of the root spans' time that their descendants'
// self times account for: what the trace explains of a request.
func coverage(spans []span) float64 {
	self := selfTimes(spans)
	var root, rootSelf int64
	for i, s := range spans {
		if s.Parent < 0 && s.Req >= 0 {
			root += s.End - s.Start
			rootSelf += self[i]
		}
	}
	if root == 0 {
		return 0
	}
	return 1 - float64(rootSelf)/float64(root)
}

// writeTrace stores the spans and their per-layer sums.
func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(struct {
		Layers map[string]layerTime `json:"layers"`
		Spans  []span               `json:"spans"`
	}{byLayer(spans), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
