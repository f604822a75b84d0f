package search

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/index"
)

// TestTopKZero: k=0 returns nil on every evaluator (and must not panic
// in the heap, whose offer path assumes k ≥ 1 — the entry points guard).
func TestTopKZero(t *testing.T) {
	ix := buildIndex("a b", "a c", "b c")
	for _, pruned := range []bool{false, true} {
		s := NewSearcher(ix)
		s.DisablePruning = !pruned
		if res := rank(t, s, Term{Text: "a"}, 0); res != nil {
			t.Fatalf("pruned=%v: k=0 returned %d results", pruned, len(res))
		}
		if res := rank(t, s, Term{Text: "a"}, -5); res != nil {
			t.Fatalf("pruned=%v: k<0 returned %d results", pruned, len(res))
		}
	}
}

// TestTopKOne: k=1 keeps exactly the best (score desc, DocID asc)
// document on both evaluators.
func TestTopKOne(t *testing.T) {
	ix := buildIndex("a a a", "a b", "c", "a a a")
	for _, pruned := range []bool{false, true} {
		s := NewSearcher(ix)
		s.DisablePruning = !pruned
		res := rank(t, s, Term{Text: "a"}, 1)
		if len(res) != 1 {
			t.Fatalf("pruned=%v: got %d results", pruned, len(res))
		}
		// D0 and D3 are identical texts: the DocID tiebreak keeps D0.
		if res[0].Name != "D0" {
			t.Fatalf("pruned=%v: top = %s, want D0", pruned, res[0].Name)
		}
	}
}

// TestTopKLargerThanCorpus: k beyond the candidate count returns every
// candidate, fully ordered.
func TestTopKLargerThanCorpus(t *testing.T) {
	ix := buildIndex("a b", "a", "b", "c")
	for _, pruned := range []bool{false, true} {
		s := NewSearcher(ix)
		s.DisablePruning = !pruned
		res := rank(t, s, Combine(Term{Text: "a"}, Term{Text: "b"}), 1000)
		if len(res) != 3 {
			t.Fatalf("pruned=%v: got %d results, want 3 (docs containing a or b)", pruned, len(res))
		}
		for i := 1; i < len(res); i++ {
			if res[i-1].Score < res[i].Score {
				t.Fatalf("pruned=%v: results not score-sorted at %d", pruned, i)
			}
		}
	}
}

// TestTopKAllEqualScores: identical documents score identically; the
// ranking must be exactly ascending DocID, and truncation must keep the
// lowest IDs.
func TestTopKAllEqualScores(t *testing.T) {
	ix := buildIndex("a b", "a b", "a b", "a b", "a b", "a b")
	for _, pruned := range []bool{false, true} {
		s := NewSearcher(ix)
		s.DisablePruning = !pruned
		res := rank(t, s, Term{Text: "a"}, 4)
		if len(res) != 4 {
			t.Fatalf("pruned=%v: got %d results", pruned, len(res))
		}
		for i, r := range res {
			if want := fmt.Sprintf("D%d", i); r.Name != want {
				t.Fatalf("pruned=%v rank %d: %s, want %s (DocID tiebreak)", pruned, i, r.Name, want)
			}
			if r.Score != res[0].Score {
				t.Fatalf("pruned=%v: unequal scores among identical docs", pruned)
			}
		}
	}
}

// FuzzPrunedTopKParity fuzzes corpus shape, model, k and query weights,
// asserting the pruned top-k is bit-identical to the oracle's. Run
// with `go test -fuzz FuzzPrunedTopKParity` for continuous exploration;
// the seed corpus below runs as a regular test.
func FuzzPrunedTopKParity(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(60), uint8(0), 1.0, 1.0, 1.0)
	f.Add(int64(2), uint8(1), uint8(200), uint8(1), 0.9, 0.05, 0.05)
	f.Add(int64(3), uint8(255), uint8(30), uint8(2), 0.2, 0.3, 0.5)
	f.Add(int64(4), uint8(3), uint8(120), uint8(0), 7.5, 0.001, 2.0)
	f.Fuzz(func(t *testing.T, seed int64, kk uint8, docs uint8, model uint8, w1, w2, w3 float64) {
		if docs == 0 {
			docs = 1
		}
		k := int(kk)
		if k == 0 {
			k = 1
		}
		// Weights must be positive and finite for flatten to keep the
		// leaves; clamp rather than reject so fuzzing explores widely.
		clamp := func(w float64) float64 {
			if !(w > 1e-6 && w < 1e6) {
				return 1
			}
			return w
		}
		ix := buildSkewedIndex(int(docs), int(seed))
		q := Weight(
			[]float64{clamp(w1), clamp(w2), clamp(w3)},
			[]Node{Term{Text: "a"}, Term{Text: "b"}, Term{Text: "z"}},
		)
		m := pruningModels[int(model)%len(pruningModels)]
		pruned, full := prunedPair(ix, m.model, m.params)
		assertIdenticalResults(t, m.name, rank(t, pruned, q, k), OracleRank(full, q, k))
	})
}

// FuzzTopKHeapOrdering cross-checks the bounded heap against a full
// sort under adversarial score streams (duplicates, tiny ranges).
func FuzzTopKHeapOrdering(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(50))
	f.Add(int64(9), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, kk uint8, n uint8) {
		k := int(kk)
		if k == 0 {
			return // offer's contract requires k ≥ 1 (entry points guard)
		}
		rng := rand.New(rand.NewSource(seed))
		docs := int(n)
		ix := buildSkewedIndex(docs+1, int(seed))
		type sc struct {
			doc   int32
			score float64
		}
		scores := make([]sc, docs)
		h := topK{k: k}
		for i := range scores {
			// Few distinct values — maximal tie pressure.
			s := float64(rng.Intn(4))
			scores[i] = sc{doc: int32(i), score: s}
			h.offer(index.DocID(i), s, nil)
		}
		got := h.drain(nil, ix)
		// Reference: sort by (score desc, doc asc), truncate.
		ref := append([]sc(nil), scores...)
		for i := 1; i < len(ref); i++ {
			for j := i; j > 0 && (ref[j].score > ref[j-1].score ||
				(ref[j].score == ref[j-1].score && ref[j].doc < ref[j-1].doc)); j-- {
				ref[j], ref[j-1] = ref[j-1], ref[j]
			}
		}
		if len(ref) > k {
			ref = ref[:k]
		}
		if len(got) != len(ref) {
			t.Fatalf("%d results, want %d", len(got), len(ref))
		}
		for i := range ref {
			if int32(got[i].Doc) != ref[i].doc || got[i].Score != ref[i].score {
				t.Fatalf("rank %d: (%d,%v) want (%d,%v)", i, got[i].Doc, got[i].Score, ref[i].doc, ref[i].score)
			}
		}
	})
}
