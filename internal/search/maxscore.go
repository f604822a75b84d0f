package search

import (
	"context"
	"math"
	"sort"

	"repro/internal/fault"
	"repro/internal/index"
)

// MaxScore-style score-safe dynamic pruning (Turtle & Flood 1995) for
// the document-at-a-time evaluator. The idea: once the top-k heap is
// full, its worst retained score θ is a floor every new result must
// beat. Each leaf carries a precomputed upper bound on how much it can
// add over its background (no-match) contribution; sorting leaves by
// that bound splits them into a "non-essential" prefix — whose bounds,
// plus the maximum background mass, sum below θ — and an "essential"
// rest. A document matching no essential leaf cannot reach θ, so the
// merge only draws candidates from essential cursors and gallops the
// non-essential ones forward, never scoring the skipped documents.
//
// The implementation is score-SAFE, meaning bit-identical to searchDAAT
// (asserted by differential and fuzz tests at every layer):
//
//   - Candidates that are scored go through the same code shape:
//     contributions summed over ALL leaves in original leaf order, so
//     float summation order — and thus every scored value — is
//     unchanged.
//   - Candidates are produced in ascending DocID order in both paths,
//     and only provably-losing documents are withheld; rejected offers
//     never mutate the heap, so the heap's state evolves identically.
//   - The skip test is strict (bound < θ) with a small relative slack
//     (see pruneSlack), so a document whose bound ties θ — which could
//     displace the heap root on the DocID tiebreak — is always scored.
//
// Two pruning mechanisms compose, both judged against θ:
//
//  1. Partition skipping: documents in no essential list are never even
//     enumerated — the merge draws candidates from essential cursors
//     only, and non-essential cursors gallop forward in bulk.
//  2. Candidate filtering: an enumerated candidate is bounded BEFORE
//     full scoring by its background mass (exact at its document length
//     when the model permits), the non-essential mass, and the EXACT
//     contributions of the essential leaves that actually match it —
//     their (tf, dl) already sit under the cursors, so evaluating them
//     costs one log per matching leaf against a full evaluation's one
//     per leaf. If that provably loses, the matching entries are
//     consumed and the document is never fully scored. Exactness is
//     what gives this test teeth: with whole-list upper bounds alone a
//     single essential match already implies bound ≥ prefix[ness] ≥ θ —
//     by construction of the partition — and nothing would ever be
//     filtered. An inconclusive first test then refines the
//     non-essential mass leaf by leaf, largest bound first, swapping a
//     whole-list bound for the exact delta: 0 when the cursor already
//     passed the candidate, the real contribution when it sits on it,
//     and — only once those free answers are spent — a gallop to the
//     candidate (one the scoring loop would perform anyway if the
//     candidate survives) followed by the same evaluation. The loop ends
//     when the candidate provably loses or the bound has become its
//     exact score.
//
// There is one bound per leaf, the whole-list ub: on postings lists as
// short as this collection's a per-block bound is the list's bound over
// again (DESIGN.md §5j has the measurement).
//
// θ only rises, so the non-essential prefix only grows; the partition
// is recomputed just after threshold increases, and each filter check
// is counted in SearchStats.BoundEvaluations.
type pruneBounds struct {
	// ub[i] bounds leaf i's score delta over its background
	// contribution for ANY document in the index:
	//   ub[i] ≥ score(leaf i, tf, dl) − score(leaf i, 0, dl)  ∀ (tf, dl).
	// +Inf marks a leaf with no safe bound; it stays essential forever,
	// which degrades pruning but never safety.
	ub []float64
	// deltaExact evaluates one leaf's delta for a concrete (tf, dl) —
	// the same quantity ub[i] bounds, computed exactly. The candidate
	// filter uses it on matching essential leaves, whose (tf, dl) are
	// already under the cursors. It is exact for every leaf type (the
	// scorer needs nothing but tf and dl either), so it applies even to
	// leaves with no safe whole-list bound.
	deltaExact func(l *leaf, tf int32, dl float64) float64
	// bg bounds the total background mass: for every document,
	// Σ_i score(leaf i, 0, dl) ≤ bg. Zero for BM25 (no background).
	bg float64
	// Dirichlet's background is the one model-dependent piece the filter
	// can evaluate EXACTLY once a candidate's length is known:
	//   Σ_i w_i·log(μ·p_i/(dl+μ)) = bgConst − wSum·log(dl+μ)
	// with bgConst = Σ w_i·log(μ·p_i) and wSum = Σ w_i. exactBG marks
	// that decomposition as valid; other models use the constant bg
	// (already exact for Jelinek-Mercer, zero for BM25).
	exactBG       bool
	bgConst, wSum float64
	mu            float64
	// dlFree marks a model whose deltaExact ignores dl entirely
	// (Dirichlet: document length cancels out of the delta), letting the
	// per-leaf memo below key on tf alone.
	dlFree bool
	// Per-leaf one-entry memo of the filter's last deltaExact input and
	// output (memoTF[li] == -1: empty). Candidate term frequencies are
	// Zipfian — overwhelmingly 1 — so consecutive consultations of a
	// leaf repeat the same input, and reusing the previously computed
	// float for an equal input is bit-exact: deltaExact is pure. Nil on
	// hand-built or unpooled bounds; delta then always computes.
	memoTF  []int32
	memoDL  []float64
	memoVal []float64
}

// delta is deltaExact behind the per-leaf one-entry memo.
func (pb *pruneBounds) delta(l *leaf, li int, tf int32, dl float64) float64 {
	if pb.memoTF != nil && pb.memoTF[li] == tf && (pb.dlFree || pb.memoDL[li] == dl) {
		return pb.memoVal[li]
	}
	v := pb.deltaExact(l, tf, dl)
	if pb.memoTF != nil {
		pb.memoTF[li] = tf
		if !pb.dlFree {
			pb.memoDL[li] = dl
		}
		pb.memoVal[li] = v
	}
	return v
}

// derivePruneBounds computes the per-leaf bounds for a model at query-
// compile time, mirroring buildScorer's model switch (including its
// "unknown models score as Dirichlet" default). Derivations and safety
// arguments are in DESIGN.md §5f; in brief:
//
//   - Dirichlet: the delta w·[log((tf+μp)/(dl+μ)) − log(μp/(dl+μ))]
//     collapses to w·log(1 + tf/(μp)) — document length cancels — so
//     MaxTF alone gives the exact per-leaf maximum. The background
//     w·log(μp/(dl+μ)) is maximised at the corpus-wide minimum
//     document length.
//   - Jelinek-Mercer: the delta w·log(1 + (1−λ)(tf/dl)/(λp)) is
//     monotone in tf/dl, so the stored (tf, dl) argmax-ratio pair gives
//     the exact maximum. The background w·log(λp) is constant.
//   - BM25: no background; the contribution increases in tf and
//     decreases in dl, so evaluating at (MaxTF, MinDL) bounds it. Note
//     the ratio pair is NOT safe here (tf saturates: a (1,1) posting
//     has the best ratio but a (100,200) posting scores higher), which
//     is why TermBounds carries MaxTF/MinDL separately.
//
// The whole-list ub[i] is deltaExact evaluated at the summary's argmax
// (Dirichlet: MaxTF; Jelinek-Mercer: the ratio pair; BM25: MaxTF at
// MinDL). For Dirichlet the background is additionally kept decomposed
// (bgConst, wSum) so the candidate filter can evaluate it exactly at a
// candidate's length; see pruneBounds.
//
// All weights are positive (flatten drops non-positive ones), which
// every "maximise each summand independently" step above relies on.
//
// dst, when non-nil, is the bounds struct to fill, typically pooled
// scratch whose array backings are reused (reset here); nil allocates
// fresh — the mode hand-built test bounds and one-shot callers use.
func derivePruneBounds(model Model, params ModelParams, cs collStats, minDocLen int32, leaves []leaf, dst *pruneBounds) *pruneBounds {
	pb := dst
	if pb != nil {
		*pb = pruneBounds{
			ub:      grow(pb.ub, len(leaves)),
			memoTF:  grow(pb.memoTF, len(leaves)),
			memoDL:  grow(pb.memoDL, len(leaves)),
			memoVal: grow(pb.memoVal, len(leaves)),
		}
		// The MaxTF == 0 case below leaves ub entries untouched: reused
		// backings must present as freshly made. memoTF -1 marks the
		// filter memo empty (no real tf is negative); memoDL/memoVal are
		// only read behind a matching memoTF.
		for i := range pb.ub {
			pb.ub[i] = 0
			pb.memoTF[i] = -1
		}
	} else {
		pb = &pruneBounds{ub: make([]float64, len(leaves))}
	}
	// argmax maps a whole-list summary to the (tf, dl) at which
	// deltaExact attains the list's maximum delta under this model.
	var argmax func(b index.TermBounds) (int32, float64)
	switch model {
	case ModelJelinekMercer:
		lambda := params.Lambda
		for i := range leaves {
			pb.bg += leaves[i].weight * math.Log(lambda*leaves[i].collProb)
		}
		pb.deltaExact = func(l *leaf, tf int32, dl float64) float64 {
			return l.weight * math.Log(1+(1-lambda)*(float64(tf)/dl)/(lambda*l.collProb))
		}
		argmax = func(b index.TermBounds) (int32, float64) {
			return b.MaxRatioTF, float64(b.MaxRatioDL)
		}
	case ModelBM25:
		k1, bp := params.K1, params.B
		avgdl := cs.avgDocLen
		if avgdl == 0 {
			avgdl = 1
		}
		pb.deltaExact = func(l *leaf, tf int32, dl float64) float64 {
			// l.idf was cached by prepareLeaves — the candidate filter
			// calls this per matching leaf, and recomputing the log here
			// used to dominate the filter's cost under BM25.
			t := float64(tf)
			return l.weight * l.idf * (t * (k1 + 1)) / (t + k1*(1-bp+bp*dl/avgdl))
		}
		argmax = func(b index.TermBounds) (int32, float64) {
			return b.MaxTF, float64(b.MinDL)
		}
	default: // Dirichlet, and whatever buildScorer scores as Dirichlet
		mu := params.Mu
		dlMin := float64(minDocLen)
		pb.exactBG = true
		pb.mu = mu
		for i := range leaves {
			l := &leaves[i]
			pb.bg += l.weight * math.Log(mu*l.collProb/(dlMin+mu))
			pb.bgConst += l.weight * math.Log(mu*l.collProb)
			pb.wSum += l.weight
		}
		pb.deltaExact = func(l *leaf, tf int32, dl float64) float64 {
			return l.weight * math.Log(1+float64(tf)/(mu*l.collProb))
		}
		pb.dlFree = true // the Dirichlet delta is dl-independent
		argmax = func(b index.TermBounds) (int32, float64) {
			return b.MaxTF, 1
		}
	}
	for i := range leaves {
		l := &leaves[i]
		switch {
		case !l.bounded:
			pb.ub[i] = math.Inf(1)
		case l.bounds.MaxTF == 0:
			// Empty postings never match: delta is exactly 0.
		default:
			tf, dl := argmax(l.bounds)
			pb.ub[i] = pb.deltaExact(l, tf, dl)
		}
	}
	return pb
}

// minPruneMass is the per-query postings mass below which the pruned
// evaluator cannot recoup its setup (partition sort, bound arrays,
// filter bookkeeping): at this size even scoring everything touches so
// few postings that searchDAAT wins outright.
const minPruneMass = 64

// minPruneLeaves is the leaf-count floor below which MaxScore falls
// back to exhaustive DAAT. The candidate filter's reject path costs a
// pass over the essential leaves plus bound bookkeeping — the same
// order of work as simply scoring the candidate when the query has only
// a handful of leaves. Measured on the benchmark corpora, raw keyword
// queries (2–5 leaves) run 1.4–1.9x SLOWER pruned than exhaustive for
// every model, while heavily expanded SQE queries (~30 leaves) win:
// with few leaves the ub partition cannot push enough mass into the
// non-essential set to pay for the filter. Eight is comfortably between
// the two regimes.
const minPruneLeaves = 8

// pruneWorthwhile is the cost-based evaluator choice: it predicts from
// the flattened leaves and their bound statistics whether MaxScore can
// beat exhaustive DAAT on this query, and falls back to DAAT when it
// cannot. The prediction is cheap and deliberately coarse — pruning is
// skipped only when it cannot help or measurably loses:
//
//   - a query with fewer than minPruneLeaves leaves cannot move enough
//     bound mass into the non-essential set for skipping to outrun the
//     filter's own per-candidate cost (a single leaf is the extreme:
//     everything essential, nothing ever skipped);
//   - a query whose total postings mass is tiny is cheaper to score
//     exhaustively than to sort and bound;
//   - leaves whose bounds are all infinite (no safe summary) or all
//     zero (every list empty) stay permanently essential, so the filter
//     never fires.
//
// Falling back changes counters only (DocsSkipped and the bound/block
// counters stay 0, PostingsAdvanced equals the full mass — exactly the
// accounting identity the differential tests assert); results are
// bit-identical on either path by the score-safety argument above.
func pruneWorthwhile(leaves []leaf, pb *pruneBounds) bool {
	if len(leaves) < minPruneLeaves {
		return false
	}
	var mass int64
	finite := false
	for i := range leaves {
		mass += int64(leaves[i].nPost)
		if pb.ub[i] > 0 && !math.IsInf(pb.ub[i], 1) {
			finite = true
		}
	}
	return finite && mass >= minPruneMass
}

// pruneSlack is the safety margin added to a bound before comparing it
// against the heap threshold. The bound arithmetic sums the same
// quantities as the scorer in a different order and form, so a bound
// can sit a few ulps below a score it is supposed to dominate; skipping
// demands the bound be below θ by clearly more than that noise. 1e-9
// relative is many orders of magnitude above the worst accumulated
// rounding of a few hundred double operations, and costs effectively
// nothing in pruning power (scores that close to θ are genuine
// contenders that must be evaluated anyway).
func pruneSlack(bound, threshold float64) float64 {
	s := math.Abs(bound)
	if t := math.Abs(threshold); t > s {
		s = t
	}
	return s * 1e-9
}

// pruneState is one query's MaxScore state over its leaves: order lists
// leaf indices by ascending bound (ties: leaf order), prefix[m] = bg + Σ
// bounds of order[:m+1], rank inverts order, the first ness entries of
// order are the non-essential set with bound mass nonEssDelta, and θ is
// the threshold they are judged against. θ only rises, so ness only
// grows. searchMaxScore keeps one; searchRuns keeps one per run.
type pruneState struct {
	pb          *pruneBounds
	order, rank []int
	prefix      []float64
	ness        int
	nonEssDelta float64
	threshold   float64
	// freeAt[j] is the candidate whose free refinement pass last
	// resolved leaf j (see refine).
	freeAt []int64
}

// reset sorts pb's leaves into a fresh partition: every leaf essential,
// θ = −∞. The comparator is a total order, so the (unstable) sort
// produces one well-defined permutation.
func (p *pruneState) reset(pb *pruneBounds, sorter *ubSorter) {
	n := len(pb.ub)
	p.pb = pb
	p.order = grow(p.order, n)
	for i := range p.order {
		p.order[i] = i
	}
	*sorter = ubSorter{order: p.order, ub: pb.ub}
	sort.Sort(sorter)
	p.prefix = grow(p.prefix, n)
	p.rank = grow(p.rank, n)
	p.freeAt = grow(p.freeAt, n)
	cum := pb.bg
	for m, li := range p.order {
		cum += pb.ub[li]
		p.prefix[m] = cum
		p.rank[li] = m
		p.freeAt[m] = -1
	}
	p.ness, p.nonEssDelta, p.threshold = 0, 0, math.Inf(-1)
}

// refine is the candidate filter's refinement. bound holds a candidate's
// background mass, the non-essential mass and the exact contributions
// of its matching essential leaves; while it is inconclusive against θ,
// walk the non-essential leaves in descending-bound order and swap each
// whole-list bound for the exact delta. Free answers come first: a
// cursor already at or past the candidate gives the delta, or proves
// the posting absent, without moving. A cursor still behind keeps its
// whole-list bound until the paid pass gallops it up to the candidate
// (a gallop the scoring loop would perform anyway if the candidate
// survives) and evaluates the real delta. Every swap can only shrink the
// bound, so stopping on a provable loss is safe; otherwise refine
// returns the candidate's exact score bound: a genuine contender.
//
// leaves are the state's own leaves; leaf j reads cursor cur[j], or
// cursor j when cur is nil. stamp names the candidate: the free pass
// marks the leaves it resolved with it, so the paid pass visits exactly
// the others — even when two leaves share a cursor and the gallop made
// for one has already moved it for the other.
func (p *pruneState) refine(bound float64, leaves []leaf, cur []int, curs []index.TermCursor, curDoc []index.DocID, doc index.DocID, dl float64, stamp int64, skipped, boundEvals *int64) float64 {
	pb, threshold := p.pb, p.threshold
	for m := p.ness; bound+pruneSlack(bound, threshold) >= threshold && m > 0; {
		m--
		j := p.order[m]
		u := j
		if cur != nil {
			u = cur[j]
		}
		switch d := curDoc[u]; {
		case d > doc:
			// The cursor passed doc without stopping: the candidate is
			// in none of this leaf's remaining postings.
			bound -= pb.ub[j]
			p.freeAt[j] = stamp
		case d == doc:
			bound += pb.delta(&leaves[j], j, curs[u].Freq(), dl) - pb.ub[j]
			p.freeAt[j] = stamp
		}
		*boundEvals++
	}
	// (The free pass only stops short of the last leaf on a provable
	// loss, so the paid one never runs over leaves it did not visit.)
	for m := p.ness; bound+pruneSlack(bound, threshold) >= threshold && m > 0; {
		m--
		j := p.order[m]
		if p.freeAt[j] == stamp {
			continue
		}
		u := j
		if cur != nil {
			u = cur[j]
		}
		c := &curs[u]
		d := curDoc[u]
		if d < doc {
			r0 := c.Rank()
			d = c.Advance(doc)
			*skipped += int64(c.Rank() - r0)
			curDoc[u] = d
		}
		bound -= pb.ub[j]
		if d == doc {
			bound += pb.delta(&leaves[j], j, c.Freq(), dl)
		}
		*boundEvals++
	}
	return bound
}

// raise lifts θ and demotes every leaf whose prefix now provably loses
// against it. It returns ness as it was: order[from:ness] are the leaves
// just demoted.
func (p *pruneState) raise(threshold float64) (from int) {
	from = p.ness
	p.threshold = threshold
	for p.ness < len(p.order) {
		ub := p.prefix[p.ness]
		if !(ub+pruneSlack(ub, threshold) < threshold) {
			break
		}
		p.nonEssDelta += p.pb.ub[p.order[p.ness]]
		p.ness++
	}
	return from
}

// searchMaxScore is searchDAAT with MaxScore pruning. Same contract and
// bit-identical results; see the file comment for the safety argument.
// sc is the caller's pooled scratch (pb normally lives inside it); nil
// self-acquires one for the call.
//
// dead is searchDAAT's: documents that are scored if the merge reaches
// them but never offered. Pruning stays safe with them in the lists —
// every bound is taken over a superset of the live documents, so it
// still dominates each live one, and a document that is never offered
// cannot raise θ, so nothing is skipped that an index without the dead
// documents would have kept.
func searchMaxScore(ctx context.Context, ix *index.Index, dead index.DocSet, leaves []leaf, k int, score scorer, pb *pruneBounds, st *SearchStats, sc *evalScratch) ([]Result, error) {
	if k <= 0 {
		return nil, nil
	}
	if sc == nil {
		sc = getScratch()
		defer putScratch(sc)
	}
	n := len(leaves)
	ps := &sc.ps
	ps.reset(pb, &sc.sorter)
	order, rank := ps.order, ps.rank

	curs := sc.cursors(ix, leaves)
	curDoc := grow(sc.curDoc, n)
	sc.curDoc = curDoc
	// matched collects the essential leaves holding the candidate under
	// test, so a rejection can consume exactly those entries without a
	// second scan over the essential set.
	matched := sc.matched[:0]
	defer func() { sc.matched = matched[:0] }()
	next := exhausted
	for li := range curs {
		d := curs[li].Doc()
		curDoc[li] = d
		if d < next {
			next = d
		}
	}

	h := topK{docs: sc.heapDocs[:0], scores: sc.heapScores[:0], k: k}
	defer func() { sc.heapDocs, sc.heapScores = h.docs[:0], h.scores[:0] }()
	var iters int64 // loop trips, for the cancellation cadence
	var advanced, cands, skipped, boundEvals int64
	flushStats := func() {
		if st != nil {
			st.PostingsAdvanced += advanced
			st.CandidatesExamined += cands
			st.DocsSkipped += skipped
			st.BoundEvaluations += boundEvals
			for li := range curs {
				st.BlocksDecoded += curs[li].Decoded
				st.BlocksTotal += int64(curs[li].NumBlocks())
			}
		}
	}

	for next != exhausted {
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
		iters++
		doc := next
		dl := float64(ix.DocLen(doc))
		ness := ps.ness
		// Candidate filter: once the heap is full, bound this document's
		// best possible score — its background mass (evaluated exactly at
		// its length when the model permits), the non-essential mass, and
		// the EXACT contributions of the essential leaves that hold it,
		// whose (tf, dl) already sit under the cursors (essential cursors
		// are never behind the merge frontier, so curDoc==doc detects
		// every essential match) — and refine it. If that provably loses
		// against θ, the matching entries are consumed and the document is
		// never fully scored.
		if len(h.docs) == k {
			bound := pb.bg
			if pb.exactBG {
				bound = pb.bgConst - pb.wSum*math.Log(dl+pb.mu)
			}
			bound += ps.nonEssDelta
			// One pass: sum the exact contributions of matching essential
			// leaves, remember them, and precompute the frontier a
			// rejection would leave behind (each match peeked one entry
			// ahead WITHOUT committing the advance). The refinement moves
			// only non-essential cursors, which never feed the frontier,
			// so the peeked value stays valid.
			matched = matched[:0]
			pendingNext := exhausted
			for _, li := range order[ness:] {
				d := curDoc[li]
				if d == doc {
					c := &curs[li]
					bound += pb.delta(&leaves[li], li, c.Freq(), dl)
					matched = append(matched, li)
					d = c.PeekNext()
				}
				if d < pendingNext {
					pendingNext = d
				}
			}
			boundEvals++
			bound = ps.refine(bound, leaves, nil, curs, curDoc, doc, dl, iters, &skipped, &boundEvals)
			if bound+pruneSlack(bound, ps.threshold) < ps.threshold {
				// Consume exactly the entries the filter pass matched (the
				// refinement moved only non-essential cursors, which are
				// not among them).
				for _, li := range matched {
					curDoc[li] = curs[li].Next()
					advanced++
				}
				next = pendingNext
				continue
			}
		}
		total := 0.0
		next = exhausted
		for li := range leaves {
			l := &leaves[li]
			d := curDoc[li]
			var tf int32
			if rank[li] < ness {
				// Non-essential: position on demand with a galloping
				// seek; the postings rows jumped over are documents this
				// leaf never scored — the work pruning saved.
				if d < doc {
					c := &curs[li]
					r0 := c.Rank()
					d = c.Advance(doc)
					skipped += int64(c.Rank() - r0)
					curDoc[li] = d
				}
				if d == doc {
					c := &curs[li]
					tf = c.Freq()
					curDoc[li] = c.Next()
					advanced++
				}
				// Contribute in leaf order like searchDAAT — but do not
				// let a non-essential cursor drive candidate selection.
				total += score(l, tf, dl)
				continue
			}
			// Essential: the same fused consume-and-advance as searchDAAT.
			if d == doc {
				c := &curs[li]
				tf = c.Freq()
				d = c.Next()
				curDoc[li] = d
				advanced++
			}
			total += score(l, tf, dl)
			if d < next {
				next = d
			}
		}
		cands++
		if dead.Has(doc) {
			continue
		}
		h.offer(doc, total, st)
		if len(h.docs) == k && h.scores[0] > ps.threshold {
			boundEvals++
			if ps.raise(h.scores[0]) < ps.ness {
				// Freshly demoted leaves stop driving candidate
				// selection; recompute the pending minimum over what is
				// still essential. (At most n such recomputations over
				// the whole evaluation — ness never shrinks.)
				next = exhausted
				for _, li := range order[ps.ness:] {
					if curDoc[li] < next {
						next = curDoc[li]
					}
				}
			}
		}
	}
	// Postings left unconsumed on non-essential cursors were skipped
	// wholesale — searchDAAT would have advanced through every one.
	for li := range leaves {
		if rank[li] < ps.ness {
			skipped += int64(curs[li].Len() - curs[li].Rank())
		}
	}
	flushStats()
	return h.drain(ix), nil
}
