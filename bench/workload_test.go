package main

import (
	"fmt"
	"reflect"
	"testing"
)

func testRing(n int) []document {
	ring := make([]document, n)
	for i := range ring {
		ring[i] = document{Name: fmt.Sprintf("d%d", i), Text: fmt.Sprintf("text %d", i)}
	}
	return ring
}

func TestIngestStreamIsASlidingWindow(t *testing.T) {
	ring := testRing(ingestBatch*ingestWindow + 100) // short enough to lap
	a, b := newIngestStream(7, ring), newIngestStream(7, ring)
	live := map[string]bool{}
	var history [][]document
	for i := 0; i < 3*ingestWindow+5; i++ {
		op := a.next()
		if !reflect.DeepEqual(op, b.next()) {
			t.Fatalf("batch %d differs between two streams of one seed", i)
		}
		if len(op.Add) != ingestBatch {
			t.Fatalf("batch %d adds %d documents", i, len(op.Add))
		}
		if want := (i+1)%compactEvery == 0; op.Compact != want {
			t.Errorf("batch %d compact = %v, want %v", i, op.Compact, want)
		}
		if a.compactNext() != ((i+2)%compactEvery == 0) {
			t.Errorf("after batch %d compactNext = %v", i, a.compactNext())
		}
		for _, d := range op.Add {
			if live[d.Name] {
				t.Fatalf("batch %d adds %q a second time", i, d.Name)
			}
			live[d.Name] = true
		}
		if i < ingestWindow {
			if len(op.Delete) != 0 {
				t.Errorf("batch %d deletes before the window is full", i)
			}
		} else {
			var want []string
			for _, d := range history[i-ingestWindow] {
				want = append(want, d.Name)
			}
			if !reflect.DeepEqual(op.Delete, want) {
				t.Fatalf("batch %d does not delete what batch %d added", i, i-ingestWindow)
			}
			for _, name := range op.Delete {
				delete(live, name)
			}
		}
		history = append(history, op.Add)
		if i >= ingestWindow && len(live) != ingestBatch*ingestWindow {
			t.Fatalf("after batch %d the window holds %d documents", i, len(live))
		}
	}
	got := map[string]bool{}
	for _, d := range a.live() {
		got[d.Name] = true
	}
	if !reflect.DeepEqual(got, live) {
		t.Error("live() disagrees with the adds and deletes issued")
	}
	if other := newIngestStream(8, ring).next(); reflect.DeepEqual(other.Add, history[0]) {
		t.Error("another seed starts at the same place in the ring")
	}
}

func TestSearchStreamMixAndDeterminism(t *testing.T) {
	a, b := newSearchStream(3, 100, false), newSearchStream(3, 100, false)
	kinds := map[string]int{}
	lap := map[int]bool{}
	const n = 20000
	for i := 0; i < n; i++ {
		r := a.next()
		if r != b.next() {
			t.Fatalf("request %d differs between two streams of one seed", i)
		}
		kinds[r.Kind]++
		if lap[r.Query] {
			t.Fatalf("query %d repeats within a lap", r.Query)
		}
		lap[r.Query] = true
		if len(lap) == 100 {
			lap = map[int]bool{}
		}
	}
	for kind, want := range map[string]float64{kindManual: manualShare, kindAuto: autoShare, kindBaseline: 1 - manualShare - autoShare} {
		if got := float64(kinds[kind]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("%s share %.3f, want %.2f", kind, got, want)
		}
	}
	m := newSearchStream(3, 100, true)
	for i := 0; i < 300; i++ {
		if r := m.next(); r.Kind != kindManual {
			t.Fatalf("manual-only stream issued %s", r.Kind)
		}
	}
}

func TestExpandStream(t *testing.T) {
	titles := make([]string, 500)
	for i := range titles {
		titles[i] = fmt.Sprintf("article %d", i)
	}
	a, b := newExpandStream(5, titles), newExpandStream(5, titles)
	sizes := map[int]int{}
	const n = 9000
	for i := 0; i < n; i++ {
		r := a.next()
		if !reflect.DeepEqual(r, b.next()) {
			t.Fatalf("request %d differs between two streams of one seed", i)
		}
		if r.Set != expandSets[i%3] || r.Query == "" {
			t.Fatalf("request %d: set %q, query %q", i, r.Set, r.Query)
		}
		seen := map[string]bool{}
		for _, e := range r.Entities {
			if seen[e] {
				t.Fatalf("request %d repeats entity %q", i, e)
			}
			seen[e] = true
		}
		sizes[len(r.Entities)]++
	}
	for size, want := range map[int]float64{1: oneEntityP, 2: twoEntitiesP, 3: 1 - oneEntityP - twoEntitiesP} {
		if got := float64(sizes[size]) / n; got < want-0.03 || got > want+0.03 {
			t.Errorf("%d-entity share %.3f, want %.2f", size, got, want)
		}
	}
}

func TestLiveLedgerCheck(t *testing.T) {
	l := newLiveLedger()
	l.deletedAt["gone"] = 5
	ok := []ranked{{"a", -3}, {"b", -2.5}} // SQE_C scores need not fall with rank
	if err := l.check(ok, 9); err != nil {
		t.Errorf("good reply rejected: %v", err)
	}
	if l.check([]ranked{{"a", -3}, {"gone", -4}}, 5) == nil {
		t.Error("a document deleted before the request was sent passed")
	}
	if err := l.check([]ranked{{"a", -3}, {"gone", -4}}, 4); err != nil {
		t.Errorf("a delete acknowledged after the send must not count: %v", err)
	}
	if l.check([]ranked{{"a", -3}, {"a", -4}}, 0) == nil {
		t.Error("a repeated document passed")
	}
}
