package search

import (
	"math"
	"sort"

	"repro/internal/index"
)

// MaxScore-style score-safe dynamic pruning (Turtle & Flood 1995): the
// bounds, partition and candidate filter searchRuns keeps per pruned
// run (runs.go has the loop). Only Dirichlet — the served model — is
// pruned; the other models rank exhaustively (see prepareRuns).
//
// The idea: once the top-k heap is full, its worst retained score θ is
// a floor every new result must beat. Each leaf carries a precomputed
// upper bound on how much it can add over its background (no-match)
// contribution; sorting leaves by that bound splits them into a "non-essential" prefix — whose bounds, plus the
// maximum background mass, sum below θ — and an "essential" rest. A
// document matching no essential leaf cannot reach θ, so the merge only
// draws candidates from essential cursors and gallops the non-essential
// ones forward, never scoring the skipped documents.
//
// Pruning is score-SAFE, meaning bit-identical to scoring every
// candidate (asserted against the oracle by differential and fuzz tests
// at every layer):
//
//   - Candidates that are scored are summed over ALL leaves in original
//     leaf order, so float summation order — and thus every scored
//     value — is unchanged.
//   - Candidates are produced in ascending DocID order either way, and
//     only provably-losing documents are withheld; rejected offers never
//     mutate the heap, so the heap's state evolves identically.
//   - The skip test is strict (bound < θ) with a small relative margin
//     (see pruneLimit), so a document whose bound ties θ — which could
//     displace the heap root on the DocID tiebreak — is always scored.
//
// Two pruning mechanisms compose, both judged against θ:
//
//  1. Partition skipping: documents in no essential list are never even
//     enumerated — the merge draws candidates from essential cursors
//     only, and non-essential cursors gallop forward in bulk.
//  2. Candidate filtering: an enumerated candidate is bounded BEFORE
//     full scoring by its background mass (exact at its document
//     length), the non-essential mass, and the EXACT contributions of
//     the essential leaves that actually match it — their tf already
//     sits under the cursors, so evaluating them costs one log per
//     matching leaf against a full evaluation's one per leaf. If that provably loses, the matching entries are
//     consumed and the document is never fully scored. Exactness is
//     what gives this test teeth: with whole-list upper bounds alone a
//     single essential match already implies bound ≥ prefix[ness] ≥ θ —
//     by construction of the partition — and nothing would ever be
//     filtered. An inconclusive first test then refines the
//     non-essential mass leaf by leaf, largest bound first, swapping a
//     whole-list bound for the exact delta: 0 when the cursor already
//     passed the candidate, the real contribution when it sits on it,
//     and for a cursor still behind, a gallop to the candidate (one the
//     scoring loop would perform anyway if the candidate survives)
//     followed by the same evaluation. The loop ends when the candidate
//     provably loses or the bound has become its exact score.
//
// There is one bound per leaf, the whole-list ub: on postings lists as
// short as this collection's a per-block bound is the list's bound over
// again (CHANGES.md records the measurement).
//
// θ only rises, so the non-essential prefix only grows; the partition
// is recomputed just after threshold increases, and each filter check
// is counted in SearchStats.BoundEvaluations.
type pruneBounds struct {
	// ub[i] bounds leaf i's score delta over its background
	// contribution for ANY document in the index:
	//   ub[i] ≥ score(leaf i, tf, dl) − score(leaf i, 0, dl)  ∀ (tf, dl).
	ub []float64
	// bg bounds the total background mass: for every document,
	// Σ_i score(leaf i, 0, dl) ≤ bg. Once a candidate's length is known
	// the filter evaluates it exactly:
	//   Σ_i w_i·log(μ·p_i/(dl+μ)) = bgConst − wSum·log(dl+μ)
	// with bgConst = Σ w_i·log(μ·p_i) and wSum = Σ w_i.
	bg, bgConst, wSum float64
	mu                float64
	// Per-leaf one-entry memo of the filter's last leafDelta input and
	// output (memoTF[li] == -1: empty). Candidate term frequencies are
	// Zipfian — overwhelmingly 1 — so consecutive consultations of a
	// leaf repeat the same input, and reusing the previously computed
	// float for an equal input is bit-exact: leafDelta is pure.
	memoTF  []int32
	memoVal []float64
}

// leafDelta is one leaf's exact delta over its background at term
// frequency tf: w·[log((tf+μp)/(dl+μ)) − log(μp/(dl+μ))] collapses to
// w·log(1 + tf/(μp)), free of the document length. ub[i] is its value
// at the list's MaxTF; the candidate filter evaluates it on matching
// leaves, whose tf is already under the cursors.
func (pb *pruneBounds) leafDelta(l *leaf, tf int32) float64 {
	return l.weight * math.Log(1+float64(tf)/(pb.mu*l.collProb))
}

// delta is leafDelta behind the per-leaf one-entry memo.
func (pb *pruneBounds) delta(l *leaf, li int, tf int32) float64 {
	if pb.memoTF[li] == tf {
		return pb.memoVal[li]
	}
	v := pb.leafDelta(l, tf)
	pb.memoTF[li], pb.memoVal[li] = tf, v
	return v
}

// derive fills pb — pooled scratch whose array backings it reuses —
// with the Dirichlet bounds of leaves at smoothing mu: ub[i] is
// leafDelta at the leaf's MaxTF, and the background
// w·log(μp/(dl+μ)) is maximised at the index's minimum document length
// minDocLen. The safety arguments are in DESIGN.md §9.3. All weights are
// positive (flatten drops non-positive ones), which maximising each
// summand independently relies on.
func (pb *pruneBounds) derive(mu float64, minDocLen int32, leaves []leaf) {
	*pb = pruneBounds{
		ub:      grow(pb.ub, len(leaves)),
		mu:      mu,
		memoTF:  grow(pb.memoTF, len(leaves)),
		memoVal: grow(pb.memoVal, len(leaves)),
	}
	dlMin := float64(minDocLen)
	for i := range leaves {
		l := &leaves[i]
		pb.bg += l.weight * math.Log(mu*l.collProb/(dlMin+mu))
		pb.bgConst += l.weight * math.Log(mu*l.collProb)
		pb.wSum += l.weight
		// memoTF -1 marks the filter memo empty (no real tf is
		// negative); memoVal is only read behind a matching memoTF.
		pb.memoTF[i] = -1
		pb.ub[i] = 0 // empty postings never match: delta is exactly 0
		if l.maxTF > 0 {
			pb.ub[i] = pb.leafDelta(l, l.maxTF)
		}
	}
}

// minPruneMass is the per-query postings mass below which pruning
// cannot recoup its setup (partition sort, bound arrays, filter
// bookkeeping): at this size even scoring everything touches so few
// postings that exhaustive scoring wins outright.
const minPruneMass = 64

// minPruneLeaves is the leaf-count floor below which a single run is
// scored exhaustively rather than pruned. The candidate filter's reject path costs a
// pass over the essential leaves plus bound bookkeeping — the same
// order of work as simply scoring the candidate when the query has only
// a handful of leaves. Measured on the benchmark corpora, raw keyword
// queries (2–5 leaves) run 1.4–1.9x SLOWER pruned than exhaustive,
// while heavily expanded SQE queries (~30 leaves) win:
// with few leaves the ub partition cannot push enough mass into the
// non-essential set to pay for the filter. Eight is comfortably between
// the two regimes.
const minPruneLeaves = 8

// pruneWorthwhile is the cost model of a single run's mode: it predicts
// from the flattened leaves and their bound statistics whether MaxScore
// can beat exhaustive scoring on this query, and leaves the run
// unpruned when it cannot. The prediction is cheap and deliberately coarse — pruning is
// skipped only when it cannot help or measurably loses:
//
//   - a query with fewer than minPruneLeaves leaves cannot move enough
//     bound mass into the non-essential set for skipping to outrun the
//     filter's own per-candidate cost (a single leaf is the extreme:
//     everything essential, nothing ever skipped);
//   - a query whose total postings mass is tiny is cheaper to score
//     exhaustively than to sort and bound;
//   - leaves whose bounds are all zero (every list empty) stay
//     permanently essential, so the filter never fires.
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
	bounded := false
	for i := range leaves {
		mass += int64(leaves[i].nPost)
		bounded = bounded || pb.ub[i] > 0
	}
	return bounded && mass >= minPruneMass
}

// pruneLimit is θ lowered by a safety margin: a bound proves a loss only
// below it. The bound arithmetic sums the same quantities as the scorer
// in a different order and form, so a bound can sit a few ulps below a
// score it is supposed to dominate; skipping demands the bound be below
// θ by clearly more than that noise. A margin of 2e-9·|θ| is many orders
// of magnitude above the worst accumulated rounding of a few hundred
// double operations, and costs effectively nothing in pruning power
// (scores that close to θ are genuine contenders that must be evaluated
// anyway). It is at least as demanding as a relative margin of 1e-9 on
// the larger of |bound| and |θ|: bound < pruneLimit(θ) implies
// bound + 1e-9·max(|bound|, |θ|) < θ for every sign of θ. Being one
// number per θ, it is computed when θ rises, not per comparison.
func pruneLimit(threshold float64) float64 {
	return threshold - 2e-9*math.Abs(threshold)
}

// pruneState is one query's MaxScore state over its leaves: order lists
// leaf indices by ascending bound (ties: leaf order), prefix[m] = bg + Σ
// bounds of order[:m+1], rank inverts order, the first ness entries of
// order are the non-essential set with bound mass nonEssDelta, and θ is
// the threshold they are judged against, through limit =
// pruneLimit(θ). θ only rises, so ness only grows. searchRuns keeps one
// per run.
type pruneState struct {
	pb               *pruneBounds
	order, rank      []int
	prefix           []float64
	ness             int
	nonEssDelta      float64
	threshold, limit float64
	// unionOf[m] is the union leaf of order[m], whose cursor it reads.
	unionOf []int
}

// reset sorts pb's leaves, whose union leaves rl names, into a fresh
// partition: every leaf essential, θ = −∞. The comparator is a total
// order, so the (unstable) sort produces one well-defined permutation.
func (p *pruneState) reset(pb *pruneBounds, rl []runLeaf, sorter *ubSorter) {
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
	p.unionOf = grow(p.unionOf, n)
	cum := pb.bg
	for m, li := range p.order {
		cum += pb.ub[li]
		p.prefix[m] = cum
		p.rank[li] = m
		p.unionOf[m] = rl[li].u
	}
	p.ness, p.nonEssDelta, p.threshold, p.limit = 0, 0, math.Inf(-1), math.Inf(-1)
}

// refine is the candidate filter's refinement. bound holds a candidate's
// background mass, the non-essential mass and the exact contributions
// of its matching essential leaves; while it is inconclusive against θ,
// walk the non-essential leaves in descending-bound order and swap each
// whole-list bound for the exact delta. A cursor already past the
// candidate proves the posting absent and one on it gives the delta,
// both without moving; a cursor still behind gallops up to the
// candidate first (a gallop the scoring loop would perform anyway if the
// candidate survives). Every swap can only shrink the bound, so stopping
// on a provable loss is safe; otherwise refine returns the candidate's
// exact score bound: a genuine contender.
//
// leaves are the state's own leaves; leaf order[m] reads the cursor of
// union leaf unionOf[m], parked on docs[unionOf[m]]. Each leaf is
// visited once, so two leaves sharing a cursor each swap their own
// bound: the second finds the cursor where the first left it.
func (p *pruneState) refine(bound float64, leaves []leaf, curs []index.TermCursor, docs []index.DocID, doc index.DocID, skipped, boundEvals *int64) float64 {
	pb, limit := p.pb, p.limit
	for m := p.ness; bound >= limit && m > 0; {
		m--
		j, u := p.order[m], p.unionOf[m]
		c := &curs[u]
		d := docs[u]
		if d < doc {
			r0 := c.Rank()
			d = c.Advance(doc)
			*skipped += int64(c.Rank() - r0)
			docs[u] = d
		}
		bound -= pb.ub[j]
		if d == doc {
			bound += pb.delta(&leaves[j], j, c.Freq())
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
	p.threshold, p.limit = threshold, pruneLimit(threshold)
	for p.ness < len(p.order) {
		if !(p.prefix[p.ness] < p.limit) {
			break
		}
		p.nonEssDelta += p.pb.ub[p.order[p.ness]]
		p.ness++
	}
	return from
}
