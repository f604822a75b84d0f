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
//     filtered. An inconclusive first test refines in two tiers:
//     Block-Max (swap each non-essential whole-list bound for the bound
//     of the one ~128-posting block that could contain the candidate —
//     a block-directory lookup, no postings touched), then exact
//     (gallop the cursor and evaluate the real delta). Most rejections
//     resolve at the block tier, which is what lets the filter win even
//     for models whose whole-list bounds are loose.
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
	// Block-Max metadata: blockUB[i][b] bounds leaf i's delta for any
	// document in its b-th postings block — the same derivation as ub[i]
	// applied to the block's own summary, so blockUB[i][b] ≤ ub[i] and
	// the candidate filter can swap a whole-list bound for the (much
	// tighter) bound of the one block that could hold the candidate
	// WITHOUT touching the postings. blockLast[i][b] is that block's last
	// document, the key blocks are located by. Both are nil for leaves
	// with no block summaries (empty or unbounded); the filter then keeps
	// the whole-list bound, which degrades pruning but never safety.
	//
	// The per-leaf arrays are built LAZILY, on a leaf's first tier-2
	// consultation (buildBlockBounds): essential leaves and leaves the
	// filter never reaches — most of them, on typical queries — never pay
	// the O(#blocks) construction, which profiling showed rivals the
	// whole filter's win on cheap-scoring models like BM25.
	blockUB   [][]float64
	blockLast [][]index.DocID
	// argmax maps a block or whole-list summary to the (tf, dl) at which
	// deltaExact attains the summary's maximum delta under this model;
	// retained from derivation for the lazy per-block builds. Nil on
	// hand-built bounds — block refinement then stays off.
	argmax func(b index.TermBounds) (int32, float64)
	// sc, when non-nil, supplies reusable row backings for the lazy
	// per-block builds (pooled scratch); nil falls back to allocating.
	sc *evalScratch
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

// buildBlockBounds fills blockUB[li]/blockLast[li] from leaf li's block
// summaries, or leaves them nil when the leaf has no usable blocks (no
// summaries, unbounded, or empty postings). Called once per consulted
// leaf; idempotence is the caller's job (searchMaxScore's built bitmap).
func (pb *pruneBounds) buildBlockBounds(l *leaf, li int) {
	if pb.argmax == nil || !l.bounded || l.bounds.MaxTF == 0 || len(l.blocks) == 0 {
		return
	}
	// Even a single-block list profits: the directory proves delta 0 for
	// any candidate past its last document.
	var ubs []float64
	var lasts []index.DocID
	if pb.sc != nil {
		ubs, lasts = pb.sc.blockRow(li, len(l.blocks))
	} else {
		ubs = make([]float64, len(l.blocks))
		lasts = make([]index.DocID, len(l.blocks))
	}
	// Consecutive blocks overwhelmingly share an argmax — under Zipfian
	// frequencies most blocks have MaxTF 1, and the Dirichlet argmax
	// ignores dl entirely — so a one-entry memo removes nearly all of
	// the per-block deltaExact (log) calls. Reusing the previously
	// computed float for equal inputs is bit-exact: deltaExact is pure.
	var memoTF int32
	var memoDL, memoUB float64
	memoOK := false
	for bi, bb := range l.blocks {
		lasts[bi] = bb.LastDoc
		if bb.MaxTF > 0 {
			btf, bdl := pb.argmax(bb.TermBounds)
			if !memoOK || btf != memoTF || bdl != memoDL {
				memoTF, memoDL = btf, bdl
				memoUB = pb.deltaExact(l, btf, bdl)
				memoOK = true
			}
			ubs[bi] = memoUB
		}
	}
	pb.blockUB[li], pb.blockLast[li] = ubs, lasts
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
// sc, when non-nil, supplies the bounds struct and its array backings
// from pooled scratch (reset here); nil allocates fresh — the mode
// hand-built test bounds and one-shot callers use.
func derivePruneBounds(model Model, params ModelParams, cs collStats, minDocLen int32, leaves []leaf, sc *evalScratch) *pruneBounds {
	var pb *pruneBounds
	if sc != nil {
		pb = &sc.pb
		*pb = pruneBounds{
			ub:        grow(pb.ub, len(leaves)),
			blockUB:   grow(pb.blockUB, len(leaves)),
			blockLast: grow(pb.blockLast, len(leaves)),
			memoTF:    grow(pb.memoTF, len(leaves)),
			memoDL:    grow(pb.memoDL, len(leaves)),
			memoVal:   grow(pb.memoVal, len(leaves)),
			sc:        sc,
		}
		// The MaxTF == 0 case below leaves ub entries untouched and the
		// lazy block builder assumes unbuilt rows are nil: reused
		// backings must present as freshly made. memoTF -1 marks the
		// filter memo empty (no real tf is negative); memoDL/memoVal are
		// only read behind a matching memoTF.
		for i := range pb.ub {
			pb.ub[i] = 0
			pb.blockUB[i] = nil
			pb.blockLast[i] = nil
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
	pb.argmax = argmax
	if sc == nil {
		pb.blockUB = make([][]float64, len(leaves))
		pb.blockLast = make([][]index.DocID, len(leaves))
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
			// Per-block bounds are NOT built here: buildBlockBounds runs
			// lazily on a leaf's first tier-2 consultation.
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

	// order lists leaf indices by ascending bound (ties: leaf order);
	// prefix[m] = bg + Σ bounds of order[:m+1]; rank inverts order. The
	// first ness entries of order are the current non-essential set.
	// The comparator is a total order, so the (unstable) sort produces
	// one well-defined permutation.
	order := grow(sc.order, n)
	sc.order = order
	for i := range order {
		order[i] = i
	}
	sc.sorter = ubSorter{order: order, ub: pb.ub}
	sort.Sort(&sc.sorter)
	prefix := grow(sc.prefix, n)
	sc.prefix = prefix
	rank := grow(sc.rank, n)
	sc.rank = rank
	cum := pb.bg
	for m, li := range order {
		cum += pb.ub[li]
		prefix[m] = cum
		rank[li] = m
	}

	if pb.blockUB == nil || pb.blockLast == nil {
		// Hand-built bounds (tests, future callers): no block metadata,
		// the filter falls back to whole-list bounds everywhere.
		pb.blockUB = make([][]float64, n)
		pb.blockLast = make([][]index.DocID, n)
	}

	curs := sc.cursors(ix, leaves)
	curDoc := grow(sc.curDoc, n)
	sc.curDoc = curDoc
	// blockHint[i] is the block the candidate filter last located for
	// leaf i; candidates only ascend, so hints only move forward and the
	// directory walk is amortised O(#blocks) per leaf. candUB[i] is the
	// filter's current per-leaf contribution estimate for the candidate
	// under test (valid only for the entries the filter touched).
	// blockBuilt[i] records that leaf i's lazy per-block bounds were
	// constructed (possibly as "none usable" — blockUB[i] stays nil).
	blockHint := grow(sc.blockHint, n)
	sc.blockHint = blockHint
	candUB := grow(sc.candUB, n)
	sc.candUB = candUB
	blockBuilt := grow(sc.blockBuilt, n)
	sc.blockBuilt = blockBuilt
	for i := 0; i < n; i++ {
		blockHint[i] = 0
		blockBuilt[i] = false
	}
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
	threshold := math.Inf(-1)
	ness := 0          // leaves order[:ness] are non-essential
	nonEssDelta := 0.0 // Σ bounds of order[:ness], maintained as ness grows
	var iters int64    // loop trips, for the cancellation cadence
	var advanced, cands, skipped, boundEvals, blockBoundEvals int64
	flushStats := func() {
		if st != nil {
			st.PostingsAdvanced += advanced
			st.CandidatesExamined += cands
			st.DocsSkipped += skipped
			st.BoundEvaluations += boundEvals
			st.BlockBoundEvaluations += blockBoundEvals
			for li := range curs {
				st.BlocksDecoded += curs[li].Decoded
				st.BlocksTotal += int64(curs[li].NumBlocks())
			}
		}
	}

	// canRangeSkip gates the block-range skip below: it needs a real
	// bound derivation (argmax) and every leaf safely bounded — one +Inf
	// bound makes every range bound +Inf, so attempts could never
	// succeed and would only burn directory walks.
	canRangeSkip := pb.argmax != nil
	for i := 0; canRangeSkip && i < n; i++ {
		if math.IsInf(pb.ub[i], 1) {
			canRangeSkip = false
		}
	}
	// Range-skip attempts are pure speculation: sound either way, but a
	// failed attempt costs a directory walk. Whether spans near the merge
	// frontier can lose against θ is a property of the whole query shape
	// (θ versus the sum of typical block bounds), so failures are heavily
	// autocorrelated. Exponential backoff — after f consecutive failed
	// calls, sit out 2^f-1 rejections — caps the waste at a vanishing
	// fraction of rejections on hopeless workloads while re-probing often
	// enough to catch a rising θ unlocking skips mid-query.
	rsFails := 0
	var rsWait int64
	// rangeSkip is the block-skipping heart of Block-Max MaxScore: called
	// after a rejected candidate, it bounds EVERY document in the span
	// (start, boundary] at once — bg plus, per leaf, the bound of the one
	// block that could hold a document of that span — where boundary is
	// the nearest block edge across the leaves. If the span provably
	// loses against θ, the essential cursors gallop straight past it and
	// no document in it is ever enumerated as a candidate; the loop then
	// tries the next span. Safety: a span document c matching leaf i
	// satisfies c ≥ max(start, curDoc[i]) and c ≤ boundary ≤ that leaf's
	// located block end, so c lies IN the located block and its delta is
	// ≤ that block's bound (leaves with no directory contribute their
	// whole-list ub; absent matches contribute 0 ≤ any bound). θ only
	// rises, so a span rejected now stays rejected. Returns whether any
	// cursor moved (callers reuse a precomputed frontier otherwise).
	rangeSkip := func(start index.DocID) bool {
		moved := false
		for {
			rb := pb.bg
			boundary := exhausted
			// Consult leaves in DESCENDING whole-list-bound order: on the
			// (common) failed attempt the running bound crosses θ within a
			// few leaves and the attempt exits without walking the rest of
			// the directories. rb only grows, so an early exit is sound.
			failed := false
			for oi := n - 1; oi >= 0; oi-- {
				li := order[oi]
				d := curDoc[li]
				if d == exhausted {
					continue // nothing left to match: contributes exactly 0
				}
				lo := start
				if d > lo {
					lo = d
				}
				if !blockBuilt[li] {
					blockBuilt[li] = true
					pb.buildBlockBounds(&leaves[li], li)
				}
				lasts := pb.blockLast[li]
				if lasts == nil {
					rb += pb.ub[li] // no directory: whole-list bound holds
				} else {
					bh := blockHint[li]
					for bh < len(lasts) && lasts[bh] < lo {
						bh++
					}
					blockHint[li] = bh
					blockBoundEvals++
					if bh == len(lasts) {
						continue // past the final block: never matches again
					}
					rb += pb.blockUB[li][bh]
					if lasts[bh] < boundary {
						boundary = lasts[bh]
					}
				}
				if !(rb+pruneSlack(rb, threshold) < threshold) {
					failed = true
					break
				}
			}
			boundEvals++
			if failed || boundary == exhausted {
				return moved
			}
			// Every document in (start-1, boundary] is beaten: gallop the
			// essential cursors past the span without enumerating it. A
			// streaming cursor consults its block directory here, so the
			// skipped-over blocks are never decoded.
			for _, li := range order[ness:] {
				if d := curDoc[li]; d != exhausted && d <= boundary {
					c := &curs[li]
					r0 := c.Rank()
					curDoc[li] = c.Advance(boundary + 1)
					skipped += int64(c.Rank() - r0)
					moved = true
				}
			}
			start = boundary + 1
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
		// Candidate filter: once the heap is full, bound this document's
		// best possible score — its background mass (evaluated exactly at
		// its length when the model permits), the non-essential mass, and
		// the EXACT contributions of the essential leaves that hold it,
		// whose (tf, dl) already sit under the cursors (essential cursors
		// are never behind the merge frontier, so curDoc==doc detects
		// every essential match). If that provably loses against θ, the
		// matching entries are consumed and the document is never fully
		// scored.
		if len(h.docs) == k {
			bound := pb.bg
			if pb.exactBG {
				bound = pb.bgConst - pb.wSum*math.Log(dl+pb.mu)
			}
			bound += nonEssDelta
			// One pass: sum the exact contributions of matching essential
			// leaves, remember them, and precompute the frontier a
			// rejection would leave behind (each match peeked one entry
			// ahead WITHOUT committing the advance). The peeked frontier is
			// valid as long as nothing else moves a cursor; tier 3 and a
			// successful range skip invalidate it (frontierStale).
			matched = matched[:0]
			pendingNext := exhausted
			frontierStale := false
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
			// Tier 2 — Block-Max refinement: while the bound is
			// inconclusive, replace a non-essential leaf's whole-list
			// bound with the bound of the single block that could contain
			// this candidate, located through the block directory with the
			// leaf's monotone hint. No cursor moves and no postings rows
			// are touched — under an mmap'd v2 index the directory is the
			// only memory read. A cursor already at or past the candidate
			// is better still: its delta is exact (the posting sits under
			// the cursor, or provably absent). Every replacement can only
			// shrink the bound, so breaking out on a provable loss is safe.
			m := ness
			for bound+pruneSlack(bound, threshold) >= threshold && m > 0 {
				m--
				li := order[m]
				d := curDoc[li]
				val := pb.ub[li]
				switch {
				case d > doc:
					// The cursor passed doc without stopping: the candidate
					// is in none of this leaf's remaining postings.
					val = 0
				case d == doc:
					val = pb.delta(&leaves[li], li, curs[li].Freq(), dl)
				default:
					if !blockBuilt[li] {
						blockBuilt[li] = true
						pb.buildBlockBounds(&leaves[li], li)
					}
					if lasts := pb.blockLast[li]; lasts != nil {
						bh := blockHint[li]
						for bh < len(lasts) && lasts[bh] < doc {
							bh++
						}
						blockHint[li] = bh
						if bh < len(lasts) {
							val = pb.blockUB[li][bh]
						} else {
							val = 0 // past the final block: never matches again
						}
						blockBoundEvals++
					}
				}
				candUB[li] = val
				bound += val - pb.ub[li]
				boundEvals++
			}
			// Tier 3 — exact refinement: if the block bounds were not
			// decisive, replace them with exact contributions, galloping
			// each cursor to the candidate (a gallop the scoring loop
			// would perform anyway if the candidate survives). Leaves
			// whose tier-2 value is already exact — cursor at/past doc, or
			// the directory proved a zero delta — are skipped. The loop
			// ends when the candidate provably loses or the bound has
			// become its exact score: a genuine contender worth full
			// evaluation.
			for m2 := ness; bound+pruneSlack(bound, threshold) >= threshold && m2 > m; {
				m2--
				li := order[m2]
				if curDoc[li] >= doc || candUB[li] == 0 {
					continue
				}
				c := &curs[li]
				r0 := c.Rank()
				d := c.Advance(doc)
				skipped += int64(c.Rank() - r0)
				curDoc[li] = d
				bound -= candUB[li]
				if d == doc {
					bound += pb.delta(&leaves[li], li, c.Freq(), dl)
				}
				boundEvals++
			}
			if bound+pruneSlack(bound, threshold) < threshold {
				// Consume exactly the entries the filter pass matched (the
				// tiers moved only non-essential cursors, which never sit on
				// doc here and never feed the frontier).
				for _, li := range matched {
					curDoc[li] = curs[li].Next()
					advanced++
				}
				// With the rejected candidate consumed, try to disprove
				// whole spans before enumerating the next candidate.
				if canRangeSkip {
					if rsWait > 0 {
						rsWait--
					} else if rangeSkip(doc + 1) {
						frontierStale = true
						rsFails = 0
					} else {
						if rsFails < 6 {
							rsFails++
						}
						rsWait = 1<<rsFails - 1
					}
				}
				if frontierStale {
					pendingNext = exhausted
					for _, li := range order[ness:] {
						if d := curDoc[li]; d < pendingNext {
							pendingNext = d
						}
					}
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
		if len(h.docs) == k && h.scores[0] > threshold {
			threshold = h.scores[0]
			boundEvals++
			moved := false
			for ness < n {
				ub := prefix[ness]
				if !(ub+pruneSlack(ub, threshold) < threshold) {
					break
				}
				nonEssDelta += pb.ub[order[ness]]
				ness++
				moved = true
			}
			if moved {
				// Freshly demoted leaves stop driving candidate
				// selection; recompute the pending minimum over what is
				// still essential. (At most n such recomputations over
				// the whole evaluation — ness never shrinks.)
				next = exhausted
				for _, li := range order[ness:] {
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
		if rank[li] < ness {
			skipped += int64(curs[li].Len() - curs[li].Rank())
		}
	}
	flushStats()
	return h.drain(ix), nil
}
