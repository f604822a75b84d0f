package search

import (
	"context"
	"math"
	"slices"

	"repro/internal/fault"
	"repro/internal/index"
)

// The top-k loop (DESIGN.md §9.2, §9.3). Every evaluation — a single
// tree, a shard, a live segment, a shard server, SQE_C's three trees —
// is one call to searchRuns over one or more runs: flattened trees
// whose leaves are merged into a union, one cursor per union leaf, and
// every run keeps its own top-k heap, threshold θ and MaxScore partition
// over its own leaves.
//
// Each run's top-k is bit-identical to an exhaustive evaluation of its
// tree alone, for three reasons:
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
//     essential for at least one run that holds it (unionLeaf.ess > 0), so
//     every candidate some run would have drawn is enumerated. A
//     candidate is passed over only when every run that matches it
//     proves it loses with the MaxScore filter, refinement passes
//     included.
type runEval struct {
	// lo, hi delimit the run's leaves in the flattened slice.
	lo, hi int
	// prune: the run filters candidates and demotes leaves (MaxScore);
	// false scores every candidate it matches.
	prune bool
	// bounds and the partition over them, indexed by the run's own leaf
	// positions.
	bounds pruneBounds
	pruneState
	h topK
	// Per-candidate state: hit marks a match on one of the run's
	// essential leaves, bound accumulates the filter's exact deltas.
	hit   bool
	bound float64
}

// sameLeaf reports whether two leaves of one index share their postings
// and statistics: the same term row or the same positional memo entry,
// carrying the same collection statistics. Every phrase or window with
// an out-of-vocabulary constituent resolves to one shared empty entry,
// which a partition's global-statistics override gives each leaf its
// own cf, df and collProb; those merge only where the statistics agree.
// Anonymous leaves (out-of-vocabulary terms) never merge.
func sameLeaf(a, b *leaf) bool {
	if a.positional != b.positional || a.termID != b.termID || a.positional == nil && a.termID < 0 {
		return false
	}
	return a.cf == b.cf && a.df == b.df && a.collProb == b.collProb
}

// searchRuns is the top-k loop. leaves holds every run's flattened
// leaves back to back, run r's ending at ends[r]; every run's ranking is
// appended to buf, which searchRuns returns, and out[r] set to run r's
// slice of it (nil when the run ranks nothing). dead lists documents of
// ix that no longer exist (a live segment's tombstones): their postings
// are walked, they are in the lists, but they are never offered to a
// heap, so the survivors and the thresholds they set are exactly those
// of an index without them — and every bound, taken over a superset of
// the live documents, still dominates.
//
// Any statistics override must already be written to the leaves: the
// per-leaf caches and the bound arithmetic derive from what they hold
// now, while postings summaries and the minimum document length stay
// local to ix (bounds only need to dominate the documents ix can
// produce).
//
// A run prunes when the model is scored as Dirichlet, the paper's and
// the served model, and cfg.disablePruning is not set; Jelinek-Mercer
// and BM25 rank exhaustively. A Dirichlet single run prunes only when
// cfg.forcePrune is set or pruneWorthwhile predicts the filter pays;
// among several, every Dirichlet run prunes: pruneWorthwhile weighs a
// query's filter against scoring it alone, but inside one pass a run
// that scored everything would keep all its leaves driving and every
// candidate on them scored, whatever the other runs proved.
//
// With cfg.backfill and two runs or more, the last run is a backfill
// run: it is wanted only while the run before it ranks fewer than k
// documents. Once that run's heap holds k (live) documents, the pass
// drops the backfill run — it is never hit, scored or drained again —
// out's last entry stays nil and dropped is true.
//
// The loop checks ctx every cancelCheckEvery candidates, so a serving
// deadline or a disconnected client abandons the evaluation with
// ctx.Err() and no results.
func searchRuns(ctx context.Context, ix *index.Index, dead index.DocSet, leaves []leaf, ends []int, k int, cfg scoring, st *SearchStats, sc *evalScratch, out [][]Result, buf []Result) (_ []Result, dropped bool, err error) {
	// The pass lives in the scratch and start's frames are gone before
	// run's: the loop runs on partition fan-out goroutines, whose stacks
	// start small and grow by copying.
	p := &sc.pass
	p.ix, p.dead, p.leaves, p.k, p.st = ix, dead, leaves, k, st
	p.start(ends, &cfg, sc)
	err = p.run(ctx)
	if st != nil {
		st.Leaves += len(p.ul)
		st.PostingsAdvanced += p.advanced
		st.CandidatesExamined += p.cands
		st.DocsSkipped += p.skipped
		st.BoundEvaluations += p.boundEvals
		for u := range p.curs {
			st.BlocksDecoded += p.curs[u].Decoded
			st.BlocksTotal += int64(p.curs[u].NumBlocks())
		}
	}
	if err != nil {
		return buf, false, err
	}
	n := 0
	for r := range p.rs {
		n += len(p.rs[r].h.docs)
	}
	buf = slices.Grow(buf, n)
	for r := range p.rs {
		lo := len(buf)
		buf = p.rs[r].h.drain(buf, ix)
		out[r] = nil
		if len(buf) > lo {
			out[r] = buf[lo:len(buf):len(buf)]
		}
	}
	clear(out[len(p.rs):])
	return buf, p.dropped, nil
}

// pass is one searchRuns evaluation: its inputs, the union and run state
// built over them, and the counters. Its slices keep their backing from
// one evaluation to the next (evalScratch.pass); putScratch drops the
// references into the index and the caller.
type pass struct {
	ix     *index.Index
	dead   index.DocSet
	leaves []leaf
	k      int
	st     *SearchStats
	// The model and its parameters, resolved.
	model                     Model
	mu, lambda, k1, bp, avgdl float64

	ul   []unionLeaf
	docs []index.DocID
	curs []index.TermCursor
	rl   []runLeaf
	rs   []runEval
	// occ lists, per union leaf u, the (run, run-local leaf) pairs
	// holding it: occRun[o], occJ[o] for o in [occStart[u], occEnd[u]),
	// grouped by run in run order. occEnd[u] is occStart[u+1] until the
	// backfill run is dropped, which takes its pairs off the end.
	occStart, occEnd []int
	occRun, occJ     []int32
	// backfill: the last run is the backfill run and still in the pass;
	// dropped: the pass dropped it (see searchRuns).
	backfill, dropped bool
	// drv lists the driving union leaves, the essential-for-someone
	// ones; matched, those at the candidate; seen and epoch are cover's;
	// first is start's.
	drv, matched, first []int
	seen                []int32
	epoch               int32

	// The log memos (Dirichlet): lgDL[dl] is log(dl+μ), the filter's
	// exact background; bgCore[dl·len(ul)+u] is union leaf u's core at
	// tf = 0, log(μ·p/(dl+μ)). Both are pure functions of the pass's
	// inputs, so a memoised value is the value recomputed. Only lengths
	// below dlMemoCap are memoised. An entry is valid in the pass whose
	// memoEpoch it carries, so a pass starts with nothing cleared; row is
	// the current candidate's bgCore row, nil past the cap.
	lgDL, bgCore []logMemo
	row          []logMemo
	memoEpoch    uint32

	iters, advanced, cands, skipped, boundEvals int64
}

// dlMemoCap bounds the document lengths the log memos hold: a caption
// record here is ~13 tokens (p50) and under 32 in the generated corpora,
// and longer documents compute their logs as they go.
const dlMemoCap = 64

// logMemo is one memoised log and the pass (memoEpoch) it belongs to.
type logMemo struct {
	v     float64
	epoch uint32
}

// start sets the pass up over p.leaves, run r's ending at ends[r]: the
// union, every run's heap and — by the mode rule — partition, and one
// cursor per union leaf. Its steps are methods of their own, so the
// deepest of them (bound derivation) runs on a shallow stack.
func (p *pass) start(ends []int, cfg *scoring, sc *evalScratch) {
	prepareLeaves(cfg.model, cfg.cs, p.leaves)
	params := cfg.params
	p.model, p.mu, p.lambda, p.k1, p.bp, p.avgdl = cfg.model, params.Mu, params.Lambda, params.K1, params.B, cfg.cs.avgDocLen
	if p.avgdl == 0 {
		p.avgdl = 1
	}
	p.iters, p.advanced, p.cands, p.skipped, p.boundEvals = 0, 0, 0, 0, 0
	p.backfill, p.dropped = cfg.backfill && len(ends) > 1, false
	union := p.unite(ends, sc)
	p.prepareRuns(cfg, sc)
	nu := len(union)
	if p.memoEpoch++; p.memoEpoch == 0 {
		// The stamps wrapped: forget every entry once.
		clear(p.lgDL)
		clear(p.bgCore)
		p.memoEpoch = 1
	}
	p.lgDL, p.bgCore = grow(p.lgDL, dlMemoCap), grow(p.bgCore, dlMemoCap*nu)
	p.curs = sc.cursors(p.ix, union)
	p.docs = grow(p.docs, nu)
	for u := range p.curs {
		p.docs[u] = p.curs[u].Doc()
	}
	p.drv, p.matched, p.seen = p.drv[:0], p.matched[:0], grow(p.seen, nu)
	clear(p.seen)
}

// unite merges p.leaves into the union and returns its leaves: rl maps
// each run leaf to its union leaf, first lists the leaf each union leaf
// first occurs as, and occ lists, per union leaf, the (run, run-local
// index) pairs holding it, grouped by union leaf through occStart. When
// every leaf is distinct the union is the leaves themselves, not a copy.
func (p *pass) unite(ends []int, sc *evalScratch) []leaf {
	leaves := p.leaves
	first := p.first[:0]
	rl := grow(p.rl, len(leaves))
	for g := range leaves {
		u := 0
		for u < len(first) && !sameLeaf(&leaves[first[u]], &leaves[g]) {
			u++
		}
		if u == len(first) {
			first = append(first, g)
		}
		rl[g] = runLeaf{u: u, w: leaves[g].weight}
		if p.model == ModelBM25 {
			rl[g].w = leaves[g].weight * leaves[g].idf
		}
	}
	p.first, p.rl = first, rl
	union := leaves
	if len(first) < len(leaves) {
		union = sc.union[:0]
		for _, g := range first {
			union = append(union, leaves[g])
		}
		sc.union = union
	}
	nu := len(union)
	ul := grow(p.ul, nu)
	for u := range ul {
		ul[u] = unionLeaf{stamp: -1, collProb: union[u].collProb}
	}
	occStart := grow(p.occStart, nu+1)
	clear(occStart)
	for g := range rl {
		occStart[rl[g].u+1]++
	}
	for u := 0; u < nu; u++ {
		occStart[u+1] += occStart[u]
	}
	occRun := grow(p.occRun, len(leaves))
	occJ := grow(p.occJ, len(leaves))
	// occEnd is each group's fill position, and its end once filled.
	occEnd := grow(p.occEnd, nu)
	copy(occEnd, occStart[:nu])
	rs := sc.runSlots(len(ends))
	lo := 0
	for r, hi := range ends {
		for g := lo; g < hi; g++ {
			u := rl[g].u
			occRun[occEnd[u]], occJ[occEnd[u]] = int32(r), int32(g-lo)
			occEnd[u]++
		}
		rs[r].lo, rs[r].hi = lo, hi
		lo = hi
	}
	p.ul, p.occStart, p.occRun, p.occJ, p.occEnd, p.rs = ul, occStart, occRun, occJ, occEnd, rs
	return union
}

// prepareRuns resets every run's heap and applies the mode rule: a run
// that prunes gets its bounds and a fresh partition. Only a model
// scored as Dirichlet prunes — ModelDirichlet and, as in buildScorer,
// every unknown model; Jelinek-Mercer and BM25 rank exhaustively.
func (p *pass) prepareRuns(cfg *scoring, sc *evalScratch) {
	rs, rl, ul := p.rs, p.rl, p.ul
	prunable := !cfg.disablePruning && cfg.model != ModelJelinekMercer && cfg.model != ModelBM25
	for r := range rs {
		run := &rs[r]
		run.h = topK{docs: run.h.docs[:0], scores: run.h.scores[:0], k: p.k}
		run.prune = false
		for g := run.lo; g < run.hi; g++ {
			ul[rl[g].u].ess++
		}
		if !prunable || run.hi == run.lo {
			continue
		}
		leaves := p.leaves[run.lo:run.hi]
		run.bounds.derive(p.mu, p.ix.MinDocLen(), leaves)
		if len(rs) == 1 && !cfg.forcePrune && !pruneWorthwhile(leaves, &run.bounds) {
			continue
		}
		run.prune = true
		run.reset(&run.bounds, rl[run.lo:run.hi], &sc.sorter)
	}
}

// unionLeaf is a union leaf's state over one pass, in one struct so
// scoring touches one cache line per leaf: how many (run, leaf) pairs
// hold it essential — it drives candidate selection while that is
// positive — its smoothing probability, and the candidate it was last
// scored for (stamp) with its frequency and model core there (BM25:
// numerator and denominator). Its cursor's current document is in
// pass.docs, which the scans read densely.
type unionLeaf struct {
	tf           int32
	ess          int32
	stamp        int64
	collProb     float64
	coreA, coreB float64
}

// runLeaf is a run leaf as the loop reads it: its union leaf and its
// multiplier — its weight, or w·idf for BM25.
type runLeaf struct {
	u int
	w float64
}

// run draws the candidates in ascending DocID order and offers each to
// the runs it hits.
func (p *pass) run(ctx context.Context) error {
	// next is the candidate after the current one: the driving leaves'
	// smallest current document once the current one's postings are
	// consumed. Every union leaf drives at the start.
	next := p.rebuild()
	// uncovered: some run may miss a candidate, so the candidate's hits
	// need a scan. filtering: some pruned run's heap is full, so
	// candidates face its filter; heaps never shrink, so it never clears,
	// and until it is set no run has demoted a leaf: every union leaf
	// drives.
	uncovered := p.cover()
	filtering := false
	for next != exhausted {
		if p.iters%cancelCheckEvery == 0 {
			err := ctx.Err()
			if err == nil {
				err = fault.Check(fault.IndexPostings)
			}
			if err != nil {
				return err
			}
		}
		p.iters++
		doc := next
		n := p.ix.DocLen(doc)
		dl := float64(n)
		p.row = nil
		if n < dlMemoCap {
			nu := len(p.ul)
			p.row = p.bgCore[int(n)*nu : int(n)*nu+nu]
		}
		// Without a scan every non-empty run holds every union leaf
		// essential, so each is hit and none filters; the first scores
		// every leaf, and the next candidate is folded in as they are
		// consumed.
		scan := uncovered || filtering
		next = exhausted
		if scan {
			next = p.scan(doc)
			if !p.hit(doc, n) {
				for _, u := range p.matched {
					p.docs[u] = p.curs[u].Next()
					p.advanced++
				}
				continue
			}
		}

		// Full scoring: every surviving run sums its own leaves in its own
		// order and is offered the candidate.
		p.cands++
		demoted := false
		for r := range p.rs {
			run := &p.rs[r]
			if scan && !run.hit || run.hi == run.lo {
				continue
			}
			var total float64
			total, next = p.score(p.rl[run.lo:run.hi], doc, dl, !scan, next)
			if !p.dead.Has(doc) {
				run.h.offer(doc, total, p.st)
			}
			if run.prune && len(run.h.docs) == p.k {
				filtering = true
				if run.h.scores[0] > run.threshold {
					// Leaves the run just demoted release their union leaf.
					p.boundEvals++
					from := run.raise(run.h.scores[0])
					for _, j := range run.order[from:run.ness] {
						p.ul[p.rl[run.lo+j].u].ess--
						demoted = true
					}
				}
			}
			if p.backfill && r == len(p.rs)-2 && len(run.h.docs) == p.k {
				// The backfill run can place no document any more: it
				// leaves the pass before it is scored here.
				p.drop()
				demoted = true
				break
			}
		}
		if scan {
			// Driving leaves at the candidate that no scored run touched.
			for _, u := range p.matched {
				if p.ul[u].stamp != p.iters {
					p.docs[u] = p.curs[u].Next()
					p.advanced++
				}
			}
		}
		if demoted {
			next = p.rebuild()
			uncovered = p.cover()
		}
	}
	// Postings left on cursors nobody drove were skipped wholesale.
	for u := range p.curs {
		p.skipped += int64(p.curs[u].Len() - p.curs[u].Rank())
	}
	return nil
}

// drop takes the backfill run, the last, out of the pass: the union
// leaves it holds essential lose its claim to drive, its pairs leave the
// occ lists (they end every group, see unite), and the run slice ends
// before it, so nothing hits, scores or drains it again. The caller
// rebuilds and re-covers.
func (p *pass) drop() {
	last := len(p.rs) - 1
	run := &p.rs[last]
	for g := run.lo; g < run.hi; g++ {
		u := p.rl[g].u
		p.occEnd[u]--
		if j := g - run.lo; !run.prune || run.rank[j] >= run.ness {
			p.ul[u].ess--
		}
	}
	p.rs = p.rs[:last]
	p.backfill, p.dropped = false, true
}

// rebuild lists the driving union leaves — leaves no run holds
// essential any more stop driving — and returns the smallest current
// document among them. It runs once at the start and once per demotion.
func (p *pass) rebuild() index.DocID {
	next := exhausted
	p.drv = p.drv[:0]
	for u := range p.ul {
		if p.ul[u].ess > 0 {
			p.drv = append(p.drv, u)
			next = min(next, p.docs[u])
		}
	}
	return next
}

// cover reports whether some non-empty run may miss a candidate: a run
// covers the driving leaves when it holds essential as many distinct
// union leaves as drive (a run's essential leaves always drive, so then
// it holds every driving one), and every candidate sits on a driving
// leaf. seen marks the union leaves counted for a run with epoch, which
// advances once per run.
func (p *pass) cover() (uncovered bool) {
	for r := range p.rs {
		run := &p.rs[r]
		p.epoch++
		n := 0
		for g := run.lo; g < run.hi; g++ {
			if j := g - run.lo; run.prune && run.rank[j] < run.ness {
				continue
			}
			if u := p.rl[g].u; p.seen[u] != p.epoch {
				p.seen[u] = p.epoch
				n++
			}
		}
		if n != len(p.drv) && run.hi > run.lo {
			uncovered = true
		}
	}
	return uncovered
}

// scan lists the driving leaves at doc in p.matched and returns the next
// candidate, peeked past them: nothing but consuming them there moves a
// driving cursor before the next candidate.
func (p *pass) scan(doc index.DocID) index.DocID {
	docs, curs := p.docs, p.curs
	next := exhausted
	matched := p.matched[:0]
	for _, u := range p.drv {
		d := docs[u]
		if d == doc {
			matched = append(matched, u)
			d = curs[u].PeekNext()
		}
		next = min(next, d)
	}
	p.matched = matched
	return next
}

// hit marks the runs doc hits — a match on a leaf the run holds
// essential — and reports whether any of them scores it. A hit run that
// does not filter (heap not full, or not pruning) scores it. Otherwise
// each hit run runs the filter until one does not reject it. Once the
// candidate is scored, the remaining hit runs skip their filters and are
// scored too: a weighted sum over cores mostly computed already, and an
// offer their filter would have rejected is one their heap rejects.
func (p *pass) hit(doc index.DocID, dl int32) bool {
	rs, k := p.rs, p.k
	for r := range rs {
		rs[r].hit, rs[r].bound = false, 0
	}
	// For runs with a full heap, the exact deltas of their matching
	// essential leaves.
	for _, u := range p.matched {
		tf := p.curs[u].Freq()
		for o := p.occStart[u]; o < p.occEnd[u]; o++ {
			run := &rs[p.occRun[o]]
			j := int(p.occJ[o])
			if run.prune && run.rank[j] < run.ness {
				continue
			}
			run.hit = true
			if run.prune && len(run.h.docs) == k {
				run.bound += run.bounds.delta(&p.leaves[run.lo+j], j, tf)
			}
		}
	}
	for r := range rs {
		if run := &rs[r]; run.hit && (!run.prune || len(run.h.docs) < k) {
			return true
		}
	}
	// The exact background's log(dl+μ) is the same for every run:
	// looked up once, on first use.
	lgDL := math.NaN()
	scored := false
	for r := range rs {
		run := &rs[r]
		if scored || !run.hit {
			continue
		}
		if lgDL != lgDL {
			lgDL = p.logDLMu(dl)
		}
		if p.filterLoses(run, doc, lgDL) {
			run.hit = false
			continue
		}
		scored = true
	}
	return scored
}

// logDLMu is log(dl+μ), through the lgDL memo below dlMemoCap.
func (p *pass) logDLMu(dl int32) float64 {
	if dl >= dlMemoCap {
		return math.Log(float64(dl) + p.mu)
	}
	e := &p.lgDL[dl]
	if e.epoch != p.memoEpoch {
		*e = logMemo{v: math.Log(float64(dl) + p.mu), epoch: p.memoEpoch}
	}
	return e.v
}

// filterLoses is the MaxScore candidate filter for a run whose heap is
// full: run.bound holds the exact deltas of the run's matching essential
// leaves; add the exact background (lgDL is log(dl+μ)) and the
// non-essential mass, refine, and report whether the candidate provably
// loses against θ.
func (p *pass) filterLoses(run *runEval, doc index.DocID, lgDL float64) bool {
	pb := &run.bounds
	bound := pb.bgConst - pb.wSum*lgDL
	bound += run.nonEssDelta + run.bound
	p.boundEvals++
	bound = run.refine(bound, p.leaves[run.lo:run.hi], p.curs, p.docs, doc, &p.skipped, &p.boundEvals)
	return bound < run.limit
}

// score sums one run's leaves rl at doc, in the run's order. A union
// leaf's frequency is read, and its core computed, on its first touch
// for the candidate (see tf); with fold, next takes the minimum of the
// documents the touched cursors move to.
//
// The sums are the scorer closures' expressions, factored: w·core for
// the language models, ((w·idf)·num)/den for BM25 (w holds w·idf,
// rounded as the closure rounds it). The conversion pins the product's
// rounding (no fused multiply-add), as the closure's return does.
func (p *pass) score(rl []runLeaf, doc index.DocID, dl float64, fold bool, next index.DocID) (float64, index.DocID) {
	ul, docs, curs, stamp := p.ul, p.docs, p.curs, p.iters
	total := 0.0
	switch p.model {
	case ModelJelinekMercer:
		lambda := p.lambda
		for _, l := range rl {
			x := &ul[l.u]
			core := x.coreA
			if x.stamp != stamp {
				x.stamp = stamp
				var tf int32
				if d := docs[l.u]; d == doc {
					c := &curs[l.u]
					tf, docs[l.u] = c.Freq(), c.Next()
					p.advanced++
				} else if d < doc {
					tf = p.tf(l.u, doc)
				}
				var ml float64
				if dl > 0 {
					ml = float64(tf) / dl
				}
				core = math.Log((1-lambda)*ml + lambda*x.collProb)
				x.coreA = core
				if fold {
					next = min(next, docs[l.u])
				}
			}
			total += float64(l.w * core)
		}
	case ModelBM25:
		k1, norm := p.k1, 1-p.bp+p.bp*dl/p.avgdl
		for _, l := range rl {
			x := &ul[l.u]
			if x.stamp != stamp {
				x.stamp = stamp
				var tf int32
				if d := docs[l.u]; d == doc {
					c := &curs[l.u]
					tf, docs[l.u] = c.Freq(), c.Next()
					p.advanced++
				} else if d < doc {
					tf = p.tf(l.u, doc)
				}
				if x.tf = tf; tf != 0 {
					t := float64(tf)
					x.coreA, x.coreB = t*(k1+1), t+k1*norm
				}
				if fold {
					next = min(next, docs[l.u])
				}
			}
			if x.tf != 0 {
				total += l.w * x.coreA / x.coreB
			}
		}
	default: // Dirichlet, and whatever buildScorer scores as Dirichlet
		mu, row, epoch := p.mu, p.row, p.memoEpoch
		dlmu := dl + mu
		for _, l := range rl {
			x := &ul[l.u]
			core := x.coreA
			if x.stamp != stamp {
				x.stamp = stamp
				var tf int32
				if d := docs[l.u]; d == doc {
					c := &curs[l.u]
					tf, docs[l.u] = c.Freq(), c.Next()
					p.advanced++
				} else if d < doc {
					tf = p.tf(l.u, doc)
				}
				if tf == 0 && row != nil {
					// The background core, memoised per (leaf, length).
					e := &row[l.u]
					if e.epoch != epoch {
						*e = logMemo{v: math.Log((float64(tf) + mu*x.collProb) / dlmu), epoch: epoch}
					}
					core = e.v
				} else {
					core = math.Log((float64(tf) + mu*x.collProb) / dlmu)
				}
				x.coreA = core
				if fold {
					next = min(next, docs[l.u])
				}
			}
			total += float64(l.w * core)
		}
	}
	return total, next
}

// tf is score's read of a cursor behind doc — one no run drives: it
// gallops up, counting the postings it jumps over (documents the leaf
// never scored) as skipped, and returns the frequency at doc, consuming
// the posting there, or 0.
func (p *pass) tf(u int, doc index.DocID) int32 {
	c := &p.curs[u]
	r0 := c.Rank()
	d := c.Advance(doc)
	p.skipped += int64(c.Rank() - r0)
	var tf int32
	if d == doc {
		tf = c.Freq()
		d = c.Next()
		p.advanced++
	}
	p.docs[u] = d
	return tf
}
