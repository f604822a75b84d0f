package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// replayReq is one request of the traced replay; exactly one field is set.
type replayReq struct {
	search *searchReq
	expand *expandReq
	ingest *ingestOp
}

// readsPerWrite is live-mixed's replay mix: the closed loop completes
// about this many reads per ingest batch.
const readsPerWrite = 3

// requestSource yields the workload's request stream for the replay, the
// one client 0 sends over HTTP (on live-mixed, reads and ingest batches
// interleaved at a fixed ratio, since the replay has one thread).
func (r *run) requestSource() func() replayReq {
	switch r.wl {
	case wlExpandWide:
		s := newExpandStream(r.seed, r.titles)
		return func() replayReq { e := s.next(); return replayReq{expand: &e} }
	case wlLiveMixed:
		s := newSearchStream(r.seed, len(r.p.Queries), true)
		w := newIngestStream(r.seed, r.docs[seedDocs:])
		n := 0
		return func() replayReq {
			n++
			if n%(readsPerWrite+1) == 0 {
				op := w.next()
				return replayReq{ingest: &op}
			}
			q := s.next()
			return replayReq{search: &q}
		}
	default:
		s := newSearchStream(r.seed, len(r.p.Queries), r.wl != wlSearchHot)
		return func() replayReq { q := s.next(); return replayReq{search: &q} }
	}
}

// replay runs the traced pass: it boots the shape in this process,
// replays the request stream single-threaded through the layers with a
// span around each call, demands that every replayed request ranks
// exactly as Engine.Do does, replays again with spans off to price them,
// probes a few layers on their own, and writes the spans out.
func (r *run) replay() (map[string]float64, error) {
	segDir := filepath.Join(r.dir, "segments-replay")
	if r.wl == wlLiveMixed {
		if err := copyDir(filepath.Join(r.p.Dir, dirSeedSegs), segDir); err != nil {
			return nil, err
		}
	}
	tr := newTracer()
	s, err := bootShape(r.wl, r.p.Dir, segDir, true, tr)
	if err != nil {
		return nil, err
	}
	defer s.close()

	// A short untraced pass first, so that pass one does not pay for what
	// happens once per process (page-ins, the verify-once block checksums)
	// and pass two gets it for nothing.
	next := r.requestSource()
	if _, err := replayPlain(newReplayer(s, nil), next, r.p.Queries, replayWarmRequests, time.Second); err != nil {
		return nil, err
	}
	if r.wl != wlLiveMixed {
		next = r.requestSource()
	}

	// Pass one: spans on, each read paired with its Engine.Do twin. Which
	// of the two goes first alternates, so neither always finds the
	// postings and graph rows the other just pulled into the CPU caches.
	rp := newReplayer(s, tr)
	var (
		onReads      []time.Duration // replayed read requests, wall time each
		engineStages time.Duration   // Σ PipelineStats stage totals (Engine.Expand wall time on expand-wide)
		searches     int
		written      int64 // bytes of segment files that appeared
		docsIngested int
		seen         = map[string]bool{}
	)
	if r.wl == wlLiveMixed {
		if _, err := newSegmentFiles(segDir, seen); err != nil {
			return nil, err
		}
	}
	budget := time.Duration(r.seconds * replayOnShare * float64(time.Second))
	start := time.Now()
	requests := 0
	for ; requests < replayRequests && time.Since(start) < budget; requests++ {
		req := next()
		r.res.Attempted++
		var differ error
		switch {
		case req.search != nil:
			q := r.p.Queries[req.search.Query]
			var got, want []ranked
			var rerr, eerr error
			replay := func() {
				t0 := time.Now()
				got, rerr = rp.search(requests, req.search.Kind, q, resultDepth)
				onReads = append(onReads, time.Since(t0))
			}
			twin := func() {
				var stages stageTimings
				want, stages, eerr = s.engineDo(req.search.Kind, q, resultDepth)
				engineStages += stages.Total()
			}
			inTurn(requests, replay, twin)
			if rerr != nil {
				return nil, rerr
			}
			if differ = eerr; differ == nil {
				differ = equalRanked(got, want)
			}
			if differ != nil {
				differ = fmt.Errorf("replay %s %s differs from Engine.Do: %w", req.search.Kind, q.ID, differ)
			}
			if searches++; searches%deepEvery == 0 && req.search.Kind != kindBaseline {
				if err := rp.deepProbe(); err != nil {
					return nil, err
				}
			}
		case req.expand != nil:
			e := req.expand
			var nodes, wantNodes []string
			var feats, wantFeats []weighted
			var rerr, eerr error
			replay := func() {
				t0 := time.Now()
				nodes, feats, rerr = rp.expand(requests, e.Query, e.Entities, e.Set)
				onReads = append(onReads, time.Since(t0))
			}
			twin := func() {
				t0 := time.Now()
				wantNodes, wantFeats, eerr = s.engineExpand(e.Query, e.Entities, e.Set)
				engineStages += time.Since(t0)
			}
			inTurn(requests, replay, twin)
			if rerr != nil {
				return nil, rerr
			}
			if differ = eerr; differ == nil {
				differ = equalExpansion(nodes, feats, wantNodes, wantFeats)
			}
			if differ != nil {
				differ = fmt.Errorf("replay expand %v %s differs from Engine.Expand: %w", e.Entities, e.Set, differ)
			}
		default:
			if err := rp.ingestBatch(requests, *req.ingest); err != nil {
				return nil, err
			}
			docsIngested += len(req.ingest.Add)
			n, err := newSegmentFiles(segDir, seen)
			if err != nil {
				return nil, err
			}
			written += n
		}
		if differ != nil {
			r.res.Failed++
			r.res.note("%v", differ)
		}
	}
	r.res.Samples["replay_requests"] = float64(requests)

	// Pass two: the same stream, spans off, a cold expansion cache again.
	// (live-mixed carries on down its stream instead: its writes cannot be
	// replayed twice on one index.)
	if r.wl != wlLiveMixed {
		next = r.requestSource()
	}
	offReads, err := replayPlain(newReplayer(s, nil), next, r.p.Queries, requests,
		time.Duration(r.seconds*replayOffShare*float64(time.Second)))
	if err != nil {
		return nil, err
	}

	// Single-layer probes.
	allocs := rp.allocProbe(resultDepth)
	if err := rp.echoProbe(); err != nil {
		return nil, err
	}
	decodeNs, bytesPerPosting := s.decodeProbe(tr)
	var texts []string
	if r.wl == wlLiveMixed {
		for _, d := range r.docs[:2000] {
			texts = append(texts, d.Text)
		}
	} else {
		for _, q := range r.p.Queries {
			texts = append(texts, q.Text)
		}
	}
	tokenNs := tokenizeProbe(tr, texts)

	layers := byLayer(tr.spans)
	c := rp.c
	m := map[string]float64{
		"analysis.tokenize_ns_per_token": tokenNs,
		"entitylink.link_us":             layers["entitylink.link"].meanUs(),
		"kb.load_ms":                     layers["kb.load"].meanUs() / 1e3,
		"index.open_ms":                  layers["index.open"].meanUs() / 1e3,
		"sqe.new_engine_ms":              layers["sqe.new_engine"].meanUs() / 1e3,
		"motif.expand_us.T":              layers["motif.expand.T"].meanUs(),
		"motif.expand_us.TS":             layers["motif.expand.TS"].meanUs(),
		"motif.expand_us.S":              layers["motif.expand.S"].meanUs(),
		"core.graph_cold_us":             layers["core.graph_cold"].meanUs(),
		"core.cache_hit_us":              layers["core.cache_hit"].meanUs(),
		"core.query_build_us":            layers["core.query_build"].meanUs(),
		"core.splice_us":                 layers["core.splice"].meanUs(),
		"search.retrieval_us":            layers["search.retrieval"].meanUs(),
		"search.retrieval_us.k1000":      layers["search.retrieval.k1000"].meanUs(),
		"search.allocs_per_query":        allocs,
		"index.decode_ns_per_posting":    decodeNs,
		"index.bytes_per_posting":        bytesPerPosting,
		"index.ingest_us_per_doc":        layers["index.ingest"].meanUs(),
		"index.flush_ms":                 layers["index.ingest_flush"].meanUs() / 1e3,
		"index.compact_ms":               layers["index.compact"].meanUs() / 1e3,
		"rpc.roundtrip_us":               layers["rpc.roundtrip"].meanUs(),
		"trace.coverage_share":           coverage(tr.spans),
	}
	ratio := func(name string, num, den float64) {
		if den != 0 {
			m[name] = num / den
		}
	}
	ratio("entitylink.mentions_per_query", float64(c.Mentions), float64(c.LinkCalls))
	ratio("motif.matches_per_call", float64(c.Matches), float64(c.MotifCalls))
	ratio("core.features_per_query", float64(c.Features), float64(c.Expansions))
	ratio("core.leaves_per_query", float64(c.Search.Leaves), float64(c.Retrievals))
	ratio("search.postings_advanced_per_query", float64(c.Search.PostingsAdvanced), float64(c.Retrievals))
	ratio("search.candidates_per_query", float64(c.Search.CandidatesExamined), float64(c.Retrievals))
	ratio("search.docs_skipped_share", float64(c.Search.DocsSkipped), float64(c.Search.DocsSkipped+c.Search.PostingsAdvanced))
	ratio("search.bound_evals_per_query", float64(c.Search.BoundEvaluations), float64(c.Retrievals))
	ratio("search.heap_evictions_per_query", float64(c.Search.HeapEvictions), float64(c.Retrievals))
	ratio("index.blocks_decoded_share", float64(c.Search.BlocksDecoded), float64(c.Search.BlocksTotal))
	ratio("search.segments_per_query", float64(c.SegmentsSeen), float64(c.Retrievals))
	if r.wl == wlLiveMixed {
		ratio("search.tombstone_overfetch", c.Overfetch, float64(c.Retrievals))
	}
	ratio("search.slowest_shard_share", c.SlowestShard, float64(c.ShardedEvals))
	ratio("search.merge_us", float64(c.OutsideEval.Microseconds()), float64(c.ShardedEvals))
	if c.PairedRemote > 0 {
		m["rpc.share_of_retrieval"] = 1 - float64(c.PairedLocal)/float64(c.PairedRemote)
	}

	// Spans on against spans off, over the reads both passes replayed.
	n := min(len(onReads), len(offReads))
	var on, offT time.Duration
	for i := 0; i < n; i++ {
		on += onReads[i]
		offT += offReads[i]
	}
	ratio("trace.overhead_share", float64(on-offT), float64(offT))

	// The replay's stage sums against the engine's own.
	var replayStages time.Duration
	if r.wl == wlExpandWide {
		for _, d := range onReads {
			replayStages += d
		}
	} else {
		replayStages = c.Stages.Total()
	}
	ratio("trace.stage_agreement", float64(replayStages), float64(engineStages))
	if a := m["trace.stage_agreement"]; a < 0.8 || a > 1.25 {
		r.res.invalid("trace.stage_agreement %.3f outside 0.8–1.25: the replay does not do what Engine.Do does", a)
	}

	if r.wl == wlLiveMixed && docsIngested > 0 {
		// Bytes written to segment files per byte the ingested documents
		// occupy once the index is compacted.
		if err := rp.ingestBatch(-1, ingestOp{Compact: true}); err != nil {
			return nil, err
		}
		n, err := newSegmentFiles(segDir, seen)
		if err != nil {
			return nil, err
		}
		written += n
		bytes, err := dirBytes(segDir)
		if err != nil {
			return nil, err
		}
		if liveDocs := s.liveDocs(); liveDocs > 0 && bytes > 0 {
			perDoc := float64(bytes) / float64(liveDocs)
			m["index.write_amp"] = float64(written) / (perDoc * float64(docsIngested))
		}
	}

	outDir := filepath.Join("bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeTrace(filepath.Join(outDir, fmt.Sprintf("trace-%s.json", r.wl)), tr.spans); err != nil {
		return nil, err
	}
	return m, nil
}

// replayPlain replays up to n requests of next through rp with no twin
// and no checks, within budget, and returns the wall time of each read.
func replayPlain(rp *replayer, next func() replayReq, queries []benchQuery, n int, budget time.Duration) ([]time.Duration, error) {
	var reads []time.Duration
	start := time.Now()
	for i := 0; i < n && time.Since(start) < budget; i++ {
		req := next()
		var err error
		t0 := time.Now()
		switch {
		case req.search != nil:
			_, err = rp.search(i, req.search.Kind, queries[req.search.Query], resultDepth)
			reads = append(reads, time.Since(t0))
		case req.expand != nil:
			_, _, err = rp.expand(i, req.expand.Query, req.expand.Entities, req.expand.Set)
			reads = append(reads, time.Since(t0))
		default:
			err = rp.ingestBatch(i, *req.ingest)
		}
		if err != nil {
			return nil, err
		}
	}
	return reads, nil
}

// inTurn runs a then b on even turns, b then a on odd ones.
func inTurn(turn int, a, b func()) {
	if turn%2 == 1 {
		a, b = b, a
	}
	a()
	b()
}

// newSegmentFiles returns the total size of the files in dir not seen
// before, and marks them seen.
func newSegmentFiles(dir string, seen map[string]bool) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if seen[e.Name()] || !e.Type().IsRegular() {
			continue
		}
		seen[e.Name()] = true
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n, nil
}
