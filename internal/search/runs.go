package search

import (
	"context"
	"math"
	"time"

	"repro/internal/fault"
	"repro/internal/index"
)

// Several runs in one pass (DESIGN.md "SQE_C in one pass"). SQE_C's T,
// T&S and S trees share the raw-query and entity-title parts exactly,
// and T&S's features are T's plus S's, so the three evaluations walk
// mostly the same postings. searchRuns walks them once: the runs'
// flattened leaves are merged into a union, one cursor per union leaf,
// and every run keeps its own top-k heap, threshold θ and MaxScore
// partition over its own leaves.
//
// Each run's top-k is bit-identical to evaluating its tree alone
// (searchMaxScore or searchDAAT), for three reasons:
//
//   - Scores. A scored candidate gets each union leaf's model core
//     (Dirichlet and Jelinek-Mercer: the log; BM25: the numerator and
//     denominator) computed once, and each run then sums weight × core
//     over its own leaves in its own flatten order — the same float
//     operations, in the same order, as the scorer closure.
//   - Offers. A run is offered a candidate only if the candidate matches
//     one of the leaves that run holds essential — exactly the candidates
//     its own merge would have drawn. It is offered every such candidate
//     its own filter would not reject; the ones it would reject are
//     offered only when another run has the candidate scored anyway, and
//     the heap rejects them as the filter would have. Candidates arrive
//     in ascending DocID order, so every heap holds what it would have
//     held alone at every step, and its θ and partition evolve
//     identically.
//   - Skipping. A union leaf drives candidate selection while it is
//     essential for at least one run that holds it (essCount > 0), so
//     every candidate some run would have drawn is enumerated. A
//     candidate is passed over only when every run that matches it
//     proves it loses with searchMaxScore's filter, refinement passes
//     included.
type runEval struct {
	// lo, hi delimit the run's leaves in the flattened slice.
	lo, hi int
	// prune: the run filters candidates and demotes leaves (MaxScore);
	// false, under disablePruning, scores every candidate it matches.
	prune bool
	// bounds and the partition over them, indexed by the run's own leaf
	// positions: searchMaxScore's state.
	bounds pruneBounds
	pruneState
	h topK
	// Per-candidate state: hit marks a match on one of the run's
	// essential leaves, bound accumulates the filter's exact deltas.
	hit   bool
	bound float64
}

// sameLeaf reports whether two leaves of one index share their postings
// and statistics: the same term row or the same positional memo entry.
// Anonymous leaves (out-of-vocabulary terms) never merge.
func sameLeaf(a, b *leaf) bool {
	if a.positional != nil {
		return a.positional == b.positional
	}
	return a.termID >= 0 && b.positional == nil && a.termID == b.termID
}

// SearchRuns evaluates several query trees over the index in one pass
// and returns one top-k per tree, in order. Each is bit-identical to
// SearchContext on that tree alone; the pass scores each distinct leaf
// once per candidate and decodes each shared posting once. Counters —
// Leaves being the union's leaf count — accumulate into st when non-nil.
func (s *Searcher) SearchRuns(ctx context.Context, qs []Node, k int, st *SearchStats) ([][]Result, error) {
	start := time.Now()
	if st != nil {
		defer func() { st.Elapsed += time.Since(start) }()
	}
	out := make([][]Result, len(qs))
	if k <= 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := getScratch()
	defer putScratch(sc)
	leaves := sc.leaves[:0]
	ends := sc.runEnds[:0]
	for _, q := range qs {
		s.flatten(q, 1, &leaves, &sc.positional, st)
		ends = append(ends, len(leaves))
	}
	sc.leaves, sc.runEnds = leaves, ends
	if len(leaves) == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return searchRuns(ctx, s.ix, nil, leaves, ends, k, s.scoring(), st, sc, out)
}

// searchRuns is the one-pass evaluator. leaves holds every run's
// flattened leaves back to back, run r's ending at ends[r]; out receives
// one ranking per run. dead is searchDAAT's. The statistics contract is
// evalLeaves': any override is already written to the leaves.
func searchRuns(ctx context.Context, ix *index.Index, dead index.DocSet, leaves []leaf, ends []int, k int, cfg scoring, st *SearchStats, sc *evalScratch, out [][]Result) ([][]Result, error) {
	prepareLeaves(cfg.model, cfg.cs, leaves)

	// The union: uOf maps each run leaf to its union leaf; occ lists, per
	// union leaf, the (run, run-local index) pairs holding it, grouped by
	// union leaf through occStart.
	union := sc.union[:0]
	uOf := grow(sc.uOf, len(leaves))
	for g := range leaves {
		u := 0
		for u < len(union) && !sameLeaf(&union[u], &leaves[g]) {
			u++
		}
		if u == len(union) {
			union = append(union, leaves[g])
		}
		uOf[g] = u
	}
	sc.union, sc.uOf = union, uOf
	nu := len(union)
	occStart := grow(sc.occStart, nu+1)
	clear(occStart)
	for g := range leaves {
		occStart[uOf[g]+1]++
	}
	for u := 0; u < nu; u++ {
		occStart[u+1] += occStart[u]
	}
	occRun := grow(sc.occRun, len(leaves))
	occJ := grow(sc.occJ, len(leaves))
	fill := grow(sc.fill, nu)
	copy(fill, occStart[:nu])
	rs := sc.runSlots(len(ends))
	lo := 0
	for r, hi := range ends {
		for g := lo; g < hi; g++ {
			u := uOf[g]
			occRun[fill[u]], occJ[fill[u]] = int32(r), int32(g-lo)
			fill[u]++
		}
		rs[r].lo, rs[r].hi = lo, hi
		lo = hi
	}
	sc.occStart, sc.occRun, sc.occJ, sc.fill = occStart, occRun, occJ, fill

	// Per-run partition state, exactly as searchMaxScore sets it up.
	essCount := grow(sc.essCount, nu)
	clear(essCount)
	for r := range rs {
		run := &rs[r]
		run.h = topK{docs: run.h.docs[:0], scores: run.h.scores[:0], k: k}
		run.prune = false
		for g := run.lo; g < run.hi; g++ {
			essCount[uOf[g]]++
		}
		if cfg.disablePruning || run.hi == run.lo {
			continue
		}
		// Every run prunes: pruneWorthwhile weighs a query's filter
		// against scoring it alone, but here a run that scored everything
		// would keep all its leaves driving and every candidate on them
		// scored, whatever the other runs proved.
		derivePruneBounds(cfg.model, cfg.params, cfg.cs, ix.MinDocLen(), leaves[run.lo:run.hi], &run.bounds)
		run.prune = true
		run.reset(&run.bounds, &sc.sorter)
	}
	sc.essCount = essCount

	curs := sc.cursors(ix, union)
	curDoc := grow(sc.curDoc, nu)
	sc.curDoc = curDoc
	// drv lists the driving union leaves, the essential-for-someone ones.
	drv := sc.drv[:0]
	for u := range curs {
		curDoc[u] = curs[u].Doc()
		drv = append(drv, u)
	}
	// Per-candidate union state: matched lists the driving leaves at the
	// candidate; stamp[u] == iters marks union leaf u scored for it, with
	// its model core in coreA (BM25: numerator; coreB the denominator,
	// tfAt the frequency).
	matched := sc.matched[:0]
	stamp := grow(sc.stamp, nu)
	for u := range stamp {
		stamp[u] = -1
	}
	coreA := grow(sc.coreA, nu)
	coreB := grow(sc.coreB, nu)
	tfAt := grow(sc.tfAt, nu)
	// wOf is each run leaf's multiplier: its weight, or w·idf for BM25.
	wOf := grow(sc.wOf, len(leaves))
	for g := range leaves {
		wOf[g] = leaves[g].weight
		if cfg.model == ModelBM25 {
			wOf[g] = leaves[g].weight * leaves[g].idf
		}
	}
	sc.stamp, sc.coreA, sc.coreB, sc.tfAt, sc.wOf = stamp, coreA, coreB, tfAt, wOf
	defer func() { sc.drv, sc.matched = drv[:0], matched[:0] }()

	params := cfg.params
	mu, lambda, k1, bp := params.Mu, params.Lambda, params.K1, params.B
	avgdl := cfg.cs.avgDocLen
	if avgdl == 0 {
		avgdl = 1
	}
	var iters int64
	var advanced, cands, skipped, boundEvals int64
	flushStats := func() {
		if st != nil {
			st.Leaves += nu
			st.PostingsAdvanced += advanced
			st.CandidatesExamined += cands
			st.DocsSkipped += skipped
			st.BoundEvaluations += boundEvals
			for u := range curs {
				st.BlocksDecoded += curs[u].Decoded
				st.BlocksTotal += int64(curs[u].NumBlocks())
			}
		}
	}

	for {
		if iters%cancelCheckEvery == 0 {
			err := ctx.Err()
			if err == nil {
				err = fault.Check(fault.IndexPostings)
			}
			if err != nil {
				flushStats()
				return nil, err
			}
		}
		// One pass over the driving leaves finds the candidate — their
		// smallest current document — and the leaves holding it. Driving
		// cursors are never behind the candidate, and nothing below moves
		// one except consuming it there.
		doc := exhausted
		matched = matched[:0]
		for _, u := range drv {
			switch d := curDoc[u]; {
			case d < doc:
				doc = d
				matched = append(matched[:0], u)
			case d == doc:
				matched = append(matched, u)
			}
		}
		if doc == exhausted {
			break
		}
		dl := float64(ix.DocLen(doc))
		for r := range rs {
			rs[r].hit, rs[r].bound = false, 0
		}
		// Which runs the candidate hits, and — for runs with a full heap —
		// the exact deltas of their matching essential leaves.
		for _, u := range matched {
			tf := curs[u].Freq()
			tfAt[u] = tf
			for o := occStart[u]; o < occStart[u+1]; o++ {
				run := &rs[occRun[o]]
				j := int(occJ[o])
				if run.prune && run.rank[j] < run.ness {
					continue
				}
				run.hit = true
				if run.prune && len(run.h.docs) == k {
					run.bound += run.pb.delta(&leaves[run.lo+j], j, tf, dl)
				}
			}
		}
		// A hit run that does not filter (heap not full, or not pruning)
		// scores the candidate. Otherwise each hit run runs
		// searchMaxScore's filter until one does not reject it. Once the
		// candidate is scored, the remaining hit runs skip their filters
		// and are scored too: a weighted sum over cores mostly computed
		// already, and an offer their filter would have rejected is one
		// their heap rejects. The exact Dirichlet background's log(dl+μ)
		// is the same for every run: computed once, on first use.
		anyScored := false
		for r := range rs {
			if run := &rs[r]; run.hit && (!run.prune || len(run.h.docs) < k) {
				anyScored = true
				break
			}
		}
		lgDL := math.NaN()
		for r := range rs {
			run := &rs[r]
			if anyScored || !run.hit {
				continue
			}
			if run.pb.exactBG && lgDL != lgDL {
				lgDL = math.Log(dl + mu)
			}
			if run.filterLoses(leaves, uOf, curs, curDoc, doc, dl, lgDL, iters, &skipped, &boundEvals) {
				run.hit = false
				continue
			}
			anyScored = true
		}
		iters++
		if !anyScored {
			for _, u := range matched {
				curDoc[u] = curs[u].Next()
				advanced++
			}
			continue
		}

		// Full scoring: every surviving run sums its own leaves in its own
		// order; a union leaf's cursor is positioned, read, consumed and
		// its core computed on first touch.
		cands++
		demoted := false
		for r := range rs {
			run := &rs[r]
			if !run.hit {
				continue
			}
			total := 0.0
			for g := run.lo; g < run.hi; g++ {
				u := uOf[g]
				if stamp[u] != iters {
					stamp[u] = iters
					d := curDoc[u]
					if d < doc {
						// A cursor no run drives: position on demand with a
						// galloping seek, as searchMaxScore does.
						c := &curs[u]
						r0 := c.Rank()
						d = c.Advance(doc)
						skipped += int64(c.Rank() - r0)
						curDoc[u] = d
					}
					var tf int32
					if d == doc {
						c := &curs[u]
						tf = c.Freq()
						curDoc[u] = c.Next()
						advanced++
					}
					tfAt[u] = tf
					switch {
					case cfg.model == ModelBM25:
						if tf != 0 {
							t := float64(tf)
							coreA[u] = t * (k1 + 1)
							coreB[u] = t + k1*(1-bp+bp*dl/avgdl)
						}
					default:
						coreA[u] = lmCore(cfg.model, mu, lambda, union[u].collProb, tf, dl)
					}
				}
				// The scorer closures' expressions, factored: w·core for
				// the language models, ((w·idf)·num)/den for BM25 (wOf
				// holds w·idf, rounded as the closure rounds it). The
				// conversion pins the product's rounding (no fused
				// multiply-add), as the closure's return does.
				if cfg.model == ModelBM25 {
					if tfAt[u] != 0 {
						total += wOf[g] * coreA[u] / coreB[u]
					}
				} else {
					total += float64(wOf[g] * coreA[u])
				}
			}
			if !dead.Has(doc) {
				run.h.offer(doc, total, st)
			}
			if run.prune && len(run.h.docs) == k && run.h.scores[0] > run.threshold {
				// Leaves the run just demoted release their union leaf.
				boundEvals++
				from := run.raise(run.h.scores[0])
				for _, j := range run.order[from:run.ness] {
					u := uOf[run.lo+j]
					if essCount[u]--; essCount[u] == 0 {
						demoted = true
					}
				}
			}
		}
		// Driving leaves at the candidate that no scored run touched.
		for _, u := range matched {
			if stamp[u] != iters {
				curDoc[u] = curs[u].Next()
				advanced++
			}
		}
		if demoted {
			// Leaves no run holds essential any more stop driving (at
			// most once per union leaf over the whole evaluation).
			drv = drv[:0]
			for u := range curs {
				if essCount[u] > 0 {
					drv = append(drv, u)
				}
			}
		}
	}
	// Postings left on cursors nobody drove were skipped wholesale.
	for u := range curs {
		skipped += int64(curs[u].Len() - curs[u].Rank())
	}
	flushStats()
	for r := range rs {
		out[r] = rs[r].h.drain(ix)
	}
	return out, nil
}

// lmCore is a language model's per-leaf core — the scorer closure's
// expression without the weight: Dirichlet's log((tf+μp)/(dl+μ)),
// Jelinek-Mercer's log((1−λ)·tf/dl + λp).
func lmCore(model Model, mu, lambda, collProb float64, tf int32, dl float64) float64 {
	if model == ModelJelinekMercer {
		var ml float64
		if dl > 0 {
			ml = float64(tf) / dl
		}
		return math.Log((1-lambda)*ml + lambda*collProb)
	}
	return math.Log((float64(tf) + mu*collProb) / (dl + mu))
}

// filterLoses is searchMaxScore's candidate filter for one run whose
// heap is full: run.bound holds the exact deltas of the run's matching
// essential leaves; add the background (lgDL is log(dl+μ), read only
// for Dirichlet's exact background) and the non-essential mass, refine,
// and report whether the candidate provably loses against θ.
func (run *runEval) filterLoses(leaves []leaf, uOf []int, curs []index.TermCursor, curDoc []index.DocID, doc index.DocID, dl, lgDL float64, stamp int64, skipped, boundEvals *int64) bool {
	pb := run.pb
	bound := pb.bg
	if pb.exactBG {
		bound = pb.bgConst - pb.wSum*lgDL
	}
	bound += run.nonEssDelta + run.bound
	*boundEvals++
	bound = run.refine(bound, leaves[run.lo:run.hi], uOf[run.lo:run.hi], curs, curDoc, doc, dl, stamp, skipped, boundEvals)
	return bound+pruneSlack(bound, run.threshold) < run.threshold
}
