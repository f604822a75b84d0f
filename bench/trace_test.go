package main

import "testing"

func TestSelfTimeNestedAndAdjacentChildren(t *testing.T) {
	spans := []span{
		{Name: "request", Req: 0, Parent: -1, Start: 0, End: 100},
		{Name: "link", Req: 0, Parent: 0, Start: 10, End: 20},
		{Name: "graph", Req: 0, Parent: 0, Start: 20, End: 50}, // adjacent to link
		{Name: "motif", Req: 0, Parent: 2, Start: 25, End: 45}, // nested in graph
		{Name: "retrieve", Req: 0, Parent: 0, Start: 60, End: 90},
		{Name: "shard", Req: 0, Parent: 4, Start: 62, End: 80}, // two shards in parallel,
		{Name: "shard", Req: 0, Parent: 4, Start: 70, End: 88}, // overlapping
	}
	want := []int64{100 - 10 - 30 - 30, 10, 30 - 20, 20, 30 - (88 - 62), 18, 18}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	layers := byLayer(spans)
	if l := layers["shard"]; l.Count != 2 || l.TotalNs != 36 || l.SelfNs != 36 {
		t.Errorf("shard layer = %+v", l)
	}
	if c := coverage(spans); c != 0.7 {
		t.Errorf("coverage = %v, want 0.7", c)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, -1)
	tr.rename(id, "y")
	tr.end(id)
	live := newTracer()
	a := live.begin("a", 1, -1)
	b := live.begin("b", 1, a)
	live.rename(b, "c")
	live.end(b)
	live.end(a)
	if len(live.spans) != 2 || live.spans[1].Name != "c" || live.spans[1].Parent != a || live.spans[0].End < live.spans[1].End {
		t.Errorf("spans = %+v", live.spans)
	}
}
