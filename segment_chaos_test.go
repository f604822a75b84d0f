package sqe

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/search"
)

// The index-while-chaos harness (the tentpole's adversarial gate):
// a live segmented index is hammered with ingests, deletes, flushes and
// compactions while injected faults fail disk writes, merges and
// manifest commits — and while concurrent readers pin snapshots and
// diff every query bit-for-bit against a monolithic index rebuilt from
// that snapshot's own surviving documents. The runs are seeded and
// replayable: every schedule derives from -segchaos.seed, which the
// test logs.

var segChaosSeed = flag.Int64("segchaos.seed", 20260808, "seed for the index-while-chaos schedules (logged by the tests for replay)")

// chaosVocab is a small skewed vocabulary so postings overlap heavily
// across documents (ties, shared terms, phrase matches).
var chaosVocab = []string{
	"alpha", "alpha", "alpha", "beta", "beta", "gamma", "gamma",
	"delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
}

// chaosText builds one document body from the seeded stream.
func chaosText(rng *rand.Rand) string {
	n := 5 + rng.Intn(26)
	words := make([]byte, 0, n*8)
	for i := 0; i < n; i++ {
		if i > 0 {
			words = append(words, ' ')
		}
		words = append(words, chaosVocab[rng.Intn(len(chaosVocab))]...)
	}
	return string(words)
}

// chaosQueries is the query mix the readers replay: a bare term, a
// weighted combination with an out-of-vocabulary child, and a weighted
// phrase + term tree.
func chaosQueries() []search.Node {
	return []search.Node{
		search.Term{Text: "alpha"},
		search.Weighted{Children: []search.Child{
			{Weight: 0.6, Node: search.Term{Text: "beta"}},
			{Weight: 0.3, Node: search.Term{Text: "theta"}},
			{Weight: 0.1, Node: search.Term{Text: "missingterm"}},
		}},
		search.Weighted{Children: []search.Child{
			{Weight: 0.7, Node: search.Phrase{Terms: []string{"alpha", "beta"}}},
			{Weight: 0.3, Node: search.Term{Text: "gamma"}},
		}},
	}
}

// monoFromSnapshot rebuilds a monolithic index holding exactly the
// snapshot's surviving documents in ingestion order — the oracle a
// pinned snapshot must score identically to.
func monoFromSnapshot(sn *index.Snapshot, textOf map[string]string) *index.Index {
	b := index.NewBuilder(analysis.Standard())
	for _, name := range sn.LiveDocNames() {
		b.Add(name, textOf[name])
	}
	return b.Build()
}

// TestIndexWhileChaos: one writer mutates the live index under injected
// flush/merge/manifest faults (every error must be an injected one —
// anything else is a real bug) while two readers continuously pin
// snapshots and verify them against monolithic rebuilds. Query-path
// faults are armed too (ShardEval fires per segment), so reads also
// exercise the failure path; a failed read must be injected, a
// successful read must be exact.
func TestIndexWhileChaos(t *testing.T) {
	seed := *segChaosSeed
	t.Logf("chaos seed %d (replay with -segchaos.seed=%d)", seed, seed)

	reg := fault.NewRegistry(seed).
		Set(fault.SegmentFlush, fault.Policy{ErrRate: 0.25}).
		Set(fault.SegmentMerge, fault.Policy{ErrRate: 0.25}).
		Set(fault.SegmentManifest, fault.Policy{ErrRate: 0.20}).
		Set(fault.ShardEval, fault.Policy{ErrRate: 0.02})
	fault.Arm(reg)
	defer fault.Disarm()

	baseRegions := index.MappedRegions()
	live, err := index.OpenSegmented(t.TempDir(), analysis.Standard(), index.WithFlushDocs(8))
	if err != nil {
		t.Fatal(err)
	}
	gs := search.NewSegmentedSearcher(live)

	// Fixed name pool with fixed texts: deletes and re-ingests recycle
	// the same documents, so readers can rebuild any snapshot from its
	// LiveDocNames alone.
	textRng := rand.New(rand.NewSource(seed))
	textOf := make(map[string]string)
	names := make([]string, 48)
	for i := range names {
		names[i] = fmt.Sprintf("d%03d", i)
		textOf[names[i]] = chaosText(textRng)
	}
	for _, name := range names[:24] {
		if err := live.Ingest(name, textOf[name]); err != nil && !fault.IsInjected(err) {
			t.Fatal(err)
		}
	}

	const writerOps = 500
	var done atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		wrng := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < writerOps; i++ {
			var err error
			switch p := wrng.Float64(); {
			case p < 0.62:
				name := names[wrng.Intn(len(names))]
				err = live.Ingest(name, textOf[name])
			case p < 0.80:
				_, err = live.Delete(names[wrng.Intn(len(names))])
			case p < 0.90:
				err = live.Flush()
			default:
				err = live.Compact()
			}
			if err != nil && !fault.IsInjected(err) {
				t.Errorf("writer op %d: non-injected error: %v", i, err)
				return
			}
		}
	}()

	var comparisons, injectedReads atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			queries := chaosQueries()
			for !done.Load() {
				sn := live.Acquire()
				if sn == nil {
					return
				}
				mono := search.NewSearcher(monoFromSnapshot(sn, textOf))
				for qi, q := range queries {
					got, err := gs.SearchSnapshot(ctx, sn, q, 10)
					if err != nil {
						if !fault.IsInjected(err) {
							t.Errorf("reader %d query %d: non-injected error: %v", r, qi, err)
						}
						injectedReads.Add(1)
						continue
					}
					want := mono.Search(q, 10)
					if !reflect.DeepEqual(want, got) {
						t.Errorf("reader %d query %d gen %d: pinned snapshot diverges from monolithic rebuild\n got: %v\nwant: %v",
							r, qi, sn.Gen(), got, want)
					}
					comparisons.Add(1)
				}
				sn.Release()
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if comparisons.Load() < 20 {
		t.Fatalf("only %d snapshot/monolithic comparisons ran; the harness never got going", comparisons.Load())
	}

	// The chaos must actually have happened: each segment point was
	// consulted and faults were injected somewhere.
	st := reg.Stats()
	for _, p := range []fault.Point{fault.SegmentFlush, fault.SegmentMerge, fault.SegmentManifest} {
		if st[p].Hits == 0 {
			t.Errorf("fault point %s was never consulted during the chaos run", p)
		}
	}
	if reg.TotalInjected() == 0 {
		t.Error("no faults were injected; the run was not chaotic")
	}

	// Quiesce: with faults disarmed every retried mutation must succeed,
	// and the settled index must agree with its monolithic rebuild under
	// all three retrieval models.
	fault.Disarm()
	if err := live.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	sn := live.Acquire()
	if sn == nil {
		t.Fatal("no snapshot after quiesce")
	}
	monoIx := monoFromSnapshot(sn, textOf)
	for _, m := range []search.Model{search.ModelDirichlet, search.ModelJelinekMercer, search.ModelBM25} {
		gs.Model = m
		mono := search.NewSearcher(monoIx)
		mono.Model = m
		for qi, q := range chaosQueries() {
			got, err := gs.SearchSnapshot(context.Background(), sn, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if want := mono.Search(q, 10); !reflect.DeepEqual(want, got) {
				t.Errorf("settled model %v query %d: diverges from monolithic rebuild", m, qi)
			}
		}
	}
	sn.Release()
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if got := index.MappedRegions(); got != baseRegions {
		t.Fatalf("MappedRegions = %d after chaos run, want %d (leaked a segment mapping)", got, baseRegions)
	}
}

// chaosDoc is one ingested document instance in the differential model.
type chaosDoc struct {
	name, text string
	alive      bool
}

// chaosModel mirrors what the live index must durably hold, driven
// purely by the return values of the mutation calls: an operation that
// returned an injected error changed nothing; one that returned nil
// changed exactly what its contract says. Buffered documents are
// volatile — Close drops them.
type chaosModel struct {
	committed []chaosDoc
	buffer    []chaosDoc
	flushDocs int
}

func (m *chaosModel) ingest(name, text string, err error) {
	m.buffer = append(m.buffer, chaosDoc{name: name, text: text, alive: true})
	if err == nil && len(m.buffer) >= m.flushDocs {
		m.flush(nil)
	}
}

func (m *chaosModel) flush(err error) {
	if err != nil {
		return
	}
	m.committed = append(m.committed, m.buffer...)
	m.buffer = nil
}

func (m *chaosModel) delete(name string, n int, err error) error {
	if err != nil {
		return nil
	}
	marked := 0
	for i := range m.committed {
		if m.committed[i].alive && m.committed[i].name == name {
			m.committed[i].alive = false
			marked++
		}
	}
	for i := range m.buffer {
		if m.buffer[i].alive && m.buffer[i].name == name {
			m.buffer[i].alive = false
			marked++
		}
	}
	if marked != n {
		return fmt.Errorf("Delete(%q) reported %d docs, model holds %d", name, n, marked)
	}
	return nil
}

func (m *chaosModel) compact(err error) {
	if err != nil {
		return
	}
	kept := m.committed[:0]
	for _, d := range m.committed {
		if d.alive {
			kept = append(kept, d)
		}
	}
	m.committed = kept
}

// close models Close: the unflushed buffer is volatile by design.
func (m *chaosModel) close() { m.buffer = nil }

// survivors returns the alive committed documents in ingestion order.
func (m *chaosModel) survivors() []chaosDoc {
	var out []chaosDoc
	for _, d := range m.committed {
		if d.alive {
			out = append(out, d)
		}
	}
	return out
}

// TestSegmentedCrashRestartDifferential drives several epochs of
// faulted mutations against a return-value-tracking model, crashes
// (Close without Flush) and reopens between epochs, and requires the
// recovered index to hold exactly the model's durable state — then
// tears a committed segment file to prove a torn file fails recovery
// loudly, and restores it to prove recovery then succeeds with nothing
// lost. Single-goroutine and fully deterministic from the seed.
func TestSegmentedCrashRestartDifferential(t *testing.T) {
	seed := *segChaosSeed
	t.Logf("chaos seed %d (replay with -segchaos.seed=%d)", seed, seed)
	dir := t.TempDir()
	const flushDocs = 8

	model := &chaosModel{flushDocs: flushDocs}
	rng := rand.New(rand.NewSource(seed + 100))
	names := make([]string, 24)
	for i := range names {
		names[i] = fmt.Sprintf("c%03d", i)
	}

	checkState := func(live *index.Segmented, when string) {
		t.Helper()
		surv := model.survivors()
		var wantNames []string
		for _, d := range surv {
			wantNames = append(wantNames, d.name)
		}
		for _, d := range model.buffer {
			if d.alive {
				wantNames = append(wantNames, d.name)
			}
		}
		sn := live.Acquire()
		if sn == nil {
			t.Fatalf("%s: no snapshot", when)
		}
		defer sn.Release()
		if got := sn.LiveDocNames(); !reflect.DeepEqual(got, wantNames) {
			t.Fatalf("%s: live docs diverge from model\n got: %v\nwant: %v", when, got, wantNames)
		}
	}

	live, err := index.OpenSegmented(dir, analysis.Standard(), index.WithFlushDocs(flushDocs))
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 4; epoch++ {
		reg := fault.NewRegistry(seed+int64(epoch)).
			Set(fault.SegmentFlush, fault.Policy{ErrRate: 0.30}).
			Set(fault.SegmentMerge, fault.Policy{ErrRate: 0.30}).
			Set(fault.SegmentManifest, fault.Policy{ErrRate: 0.25})
		fault.Arm(reg)
		for i := 0; i < 120; i++ {
			switch p := rng.Float64(); {
			case p < 0.60:
				name := names[rng.Intn(len(names))]
				text := chaosText(rng)
				err := live.Ingest(name, text)
				if err != nil && !fault.IsInjected(err) {
					t.Fatalf("epoch %d op %d: ingest: %v", epoch, i, err)
				}
				model.ingest(name, text, err)
			case p < 0.80:
				name := names[rng.Intn(len(names))]
				n, err := live.Delete(name)
				if err != nil && !fault.IsInjected(err) {
					t.Fatalf("epoch %d op %d: delete: %v", epoch, i, err)
				}
				if merr := model.delete(name, n, err); merr != nil {
					t.Fatalf("epoch %d op %d: %v", epoch, i, merr)
				}
			case p < 0.90:
				err := live.Flush()
				if err != nil && !fault.IsInjected(err) {
					t.Fatalf("epoch %d op %d: flush: %v", epoch, i, err)
				}
				model.flush(err)
			default:
				err := live.Compact()
				if err != nil && !fault.IsInjected(err) {
					t.Fatalf("epoch %d op %d: compact: %v", epoch, i, err)
				}
				model.compact(err)
			}
		}
		fault.Disarm()
		checkState(live, fmt.Sprintf("epoch %d pre-crash", epoch))

		// Crash: no Flush, the buffer dies with the process. Reopen must
		// recover exactly the committed state — including any epoch where
		// a merge "crashed" after writing its output but before the
		// manifest commit (the orphan file is swept at open).
		if err := live.Close(); err != nil {
			t.Fatal(err)
		}
		model.close()
		live, err = index.OpenSegmented(dir, analysis.Standard(), index.WithFlushDocs(flushDocs))
		if err != nil {
			t.Fatalf("epoch %d: reopen after crash: %v", epoch, err)
		}
		checkState(live, fmt.Sprintf("epoch %d post-restart", epoch))
	}

	// Retrieval differential on the final recovered state: every model,
	// against a monolithic index of the model's survivors.
	b := index.NewBuilder(analysis.Standard())
	for _, d := range model.survivors() {
		b.Add(d.name, d.text)
	}
	monoIx := b.Build()
	gs := search.NewSegmentedSearcher(live)
	for _, m := range []search.Model{search.ModelDirichlet, search.ModelJelinekMercer, search.ModelBM25} {
		gs.Model = m
		mono := search.NewSearcher(monoIx)
		mono.Model = m
		for qi, q := range chaosQueries() {
			got, err := gs.Evaluate(context.Background(), q, 10, search.EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if want := mono.Search(q, 10); !reflect.DeepEqual(want, got.Results) {
				t.Errorf("recovered model %v query %d: diverges from monolithic rebuild", m, qi)
			}
		}
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	// Torn-file leg: truncating a committed segment must fail recovery
	// with a loud error naming the segment — silent data loss is the one
	// forbidden outcome — and restoring the bytes must fully recover.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.v2"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no committed segment files to tear (err=%v)", err)
	}
	victim := segs[len(segs)-1]
	whole, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := index.OpenSegmented(dir, analysis.Standard()); err == nil {
		t.Fatal("open succeeded over a torn segment file")
	}
	if err := os.WriteFile(victim, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	live, err = index.OpenSegmented(dir, analysis.Standard(), index.WithFlushDocs(flushDocs))
	if err != nil {
		t.Fatalf("reopen after restoring the torn file: %v", err)
	}
	checkState(live, "post-restore")
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
}
