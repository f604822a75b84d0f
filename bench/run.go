package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	segments = 10 // equal slices of the measured phase
	// Set-ups per run; setup_s is their median. They come in two groups,
	// before the load and after it, so that one slow phase of the host
	// cannot cover most of them.
	coldBootsBefore = 3
	coldBootsAfter  = 4
	warmSeconds     = 3 // closed-loop warm-up before the measured phase
	// A traced run splits --seconds between a shorter measured phase, a
	// one-client pass and the in-process replay.
	tracedLoadShare = 0.4
	tracedSoloShare = 0.1
	replayOnShare   = 0.2
	replayOffShare  = 0.1
	replayRequests  = 2000
	// replayWarmRequests are replayed untraced before the traced pass.
	replayWarmRequests = 100
)

// env is recorded with every result so two result sets can be told apart.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	WarmS      float64 `json:"warm_s"`
	MeasureS   float64 `json:"measure_s"`
	Segments   int     `json:"segments"`
	BlockSize  int     `json:"block_size"`
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Valid     bool               `json:"valid"`
	Notes     []string           `json:"notes,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Samples   map[string]float64 `json:"samples"`
	// SegmentQPS is the readers' completions per second in each segment,
	// in order: the raw material of qps, kept to show drift and bursts.
	SegmentQPS []float64 `json:"segment_qps,omitempty"`
	Env        env       `json:"env"`
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) invalid(format string, args ...any) {
	r.Valid = false
	r.note("INVALID: "+format, args...)
}

// run is the state of one workload run.
type run struct {
	wl      string
	seed    int64
	seconds float64
	p       *prepared
	dir     string // scratch, removed at the end
	res     *result

	child   *child
	calls   map[searchReq]searchCall
	ledger  *liveLedger   // live-mixed
	writer  *ingestStream // live-mixed
	docs    []document    // live-mixed: the whole collection
	expand  *expandOracle // expand-wide
	titles  []string      // expand-wide
	readers int
}

// loadOutcome is what one closed-loop phase measured.
type loadOutcome struct {
	clients      []*loadClient
	segSeconds   float64
	edges        []childStats       // the server's own counters at each segment edge
	mBefore, mAf map[string]float64 // /metrics at the first and the last edge
}

// first and last are the server's counters at the ends of the measured
// phase.
func (o *loadOutcome) first() childStats { return o.edges[0] }
func (o *loadOutcome) last() childStats  { return o.edges[len(o.edges)-1] }

// cpuMsPerReq is the server's CPU time per completed request (of every
// class) in the least-disturbed quarter of the segments.
func (o *loadOutcome) cpuMsPerReq() float64 {
	var per []float64
	for i := 0; i+1 < len(o.edges); i++ {
		done := 0
		for _, c := range o.clients {
			done += c.segs[i].Done
		}
		if done > 0 {
			per = append(per, float64(o.edges[i+1].CPUNs-o.edges[i].CPUNs)/1e6/float64(done))
		}
	}
	return lowQuartile(per)
}

// runWorkload measures one workload once and returns its result. With
// trace off it reports the end-to-end metrics; with trace on, the
// per-layer ones.
func runWorkload(wl string, seed int64, seconds int, trace bool) (*result, error) {
	p, err := ensurePrepared()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "e2e-run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	nclients := min(2, runtime.NumCPU())
	r := &run{wl: wl, seed: seed, seconds: float64(seconds), p: p, dir: dir,
		calls: allSearchCalls(p.Queries), readers: nclients,
		res: &result{Workload: wl, Trace: trace, Valid: true, Samples: map[string]float64{},
			Env: env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
				Commit: commitID(), Seed: seed, Clients: nclients, Segments: segments, BlockSize: p.Meta.BlockSize}}}
	switch wl {
	case wlLiveMixed:
		if nclients < 2 {
			return nil, fmt.Errorf("%s needs a reader and a writer: two CPUs", wl)
		}
		r.readers = 1
		r.ledger = newLiveLedger()
		if r.docs, err = readDocs(filepath.Join(p.Dir, fileDocs)); err != nil {
			return nil, err
		}
		r.writer = newIngestStream(seed, r.docs[seedDocs:])
	case wlExpandWide:
		if r.expand, r.titles, err = newExpandOracle(p.Dir); err != nil {
			return nil, err
		}
	}

	segDir := filepath.Join(dir, "segments")
	if wl == wlLiveMixed {
		if err := copyDir(filepath.Join(p.Dir, dirSeedSegs), segDir); err != nil {
			return nil, err
		}
	}
	boots := coldBootsBefore
	if trace {
		boots = 1
	}
	setups, err := r.boot(segDir, boots, true)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r.child != nil {
			r.child.stop()
		}
	}()

	warm, measure := warmSeconds*time.Second, time.Duration(r.seconds*float64(time.Second))
	if trace {
		measure = time.Duration(r.seconds * tracedLoadShare * float64(time.Second))
	}
	r.res.Env.WarmS, r.res.Env.MeasureS = warm.Seconds(), measure.Seconds()
	out, err := r.load(r.clients(), warm, measure)
	if err != nil {
		return nil, err
	}
	readSegs := mergeSegments(out.clients, "read")
	qps, p50 := segmentStats(readSegs, out.segSeconds)
	lat := allLatencies(readSegs)
	r.res.Samples["p50_ms"] = float64(len(lat))
	for _, s := range readSegs {
		r.res.SegmentQPS = append(r.res.SegmentQPS, float64(s.Done)/out.segSeconds)
	}
	r.checkSteady(readSegs, out.segSeconds)
	checks := r.loadChecks(out, lat)

	if !trace {
		e := map[string]float64{
			"qps":            qps,
			"p50_ms":         p50,
			"cpu_ms_per_req": out.cpuMsPerReq(),
		}
		if e["disk_bytes_per_doc"], err = r.finish(segDir); err != nil {
			return nil, err
		}
		st, err := r.child.stats()
		if err != nil {
			return nil, err
		}
		e["rss_peak_mb"] = float64(st.HWMKB) / 1024
		r.child.stop()
		r.child = nil
		bootDir := filepath.Join(dir, "segments-boot") // live-mixed: the seed state again
		if wl == wlLiveMixed {
			if err := copyDir(filepath.Join(p.Dir, dirSeedSegs), bootDir); err != nil {
				return nil, err
			}
		}
		late, err := r.boot(bootDir, coldBootsAfter, false)
		if err != nil {
			return nil, err
		}
		e["setup_s"] = median(append(setups, late...))
		r.res.EndToEnd = e
		r.res.PerLayer = checks // the few layer counts the validity checks read
	} else {
		solo, err := r.load(r.clients()[:1], time.Second, time.Duration(r.seconds*tracedSoloShare*float64(time.Second)))
		if err != nil {
			return nil, err
		}
		soloSegs := mergeSegments(solo.clients, "read")
		if soloQPS, _ := segmentStats(soloSegs, solo.segSeconds); soloQPS > 0 {
			checks["serve.scaling_eff"] = qps / (float64(r.readers) * soloQPS)
		}
		// One caller, nothing to contend with: what the HTTP tier adds to
		// the engine call the handler timed on the very same request.
		checks["serve.overhead_us"] = median(solo.clients[0].overheadMs) * 1e3
		if _, err := r.finish(segDir); err != nil {
			return nil, err
		}
		r.child.stop()
		r.child = nil
		layers, err := r.replay()
		if err != nil {
			return nil, err
		}
		for k, v := range checks {
			layers[k] = v
		}
		layers["bench.prepare_s"] = p.ObtainS
		r.res.PerLayer = layers
	}
	r.res.Correct = r.res.Failed == 0
	if r.res.Failed > 0 {
		r.res.invalid("%d of %d requests failed", r.res.Failed, r.res.Attempted)
	}
	return r.res, nil
}

// boot cold-boots the serving shape n times, each from the on-disk
// artifacts to the first 200 from /healthz plus one correct reply, and
// returns the set-up times. With keep the last server stays up for the
// run.
func (r *run) boot(segDir string, n int, keep bool) ([]float64, error) {
	var setups []float64
	for i := 0; i < n; i++ {
		c, started, err := spawnChild(r.wl, r.p.Dir, segDir)
		if err != nil {
			return nil, err
		}
		r.child = c
		first := r.clients()[0]
		_, err = first.step()
		r.res.Attempted++
		if err != nil {
			r.res.Failed++
			r.res.note("first request after boot: %v", err)
		}
		setups = append(setups, time.Since(started).Seconds())
		if i < n-1 || !keep {
			c.stop()
			r.child = nil
		}
	}
	return setups, nil
}

// clients builds the workload's closed-loop callers against the current
// server: the readers first, then (live-mixed) the writer.
func (r *run) clients() []*loadClient {
	var cs []*loadClient
	for i := 0; i < r.readers; i++ {
		seed := r.seed + int64(i)*clientSeedGap
		if r.wl == wlExpandWide {
			cs = append(cs, expandClient(r.child.base, newExpandStream(seed, r.titles), r.expand))
		} else {
			stream := newSearchStream(seed, len(r.p.Queries), r.wl != wlSearchHot)
			cs = append(cs, searchClient(r.child.base, r.p, stream, r.calls, r.ledger))
		}
	}
	if r.wl == wlLiveMixed {
		cs = append(cs, ingestClient(r.child.base, r.writer, r.ledger))
	}
	return cs
}

// load runs one closed-loop phase and folds its request counts into the
// result.
func (r *run) load(clients []*loadClient, warm, measure time.Duration) (*loadOutcome, error) {
	out := &loadOutcome{clients: clients, segSeconds: measure.Seconds() / segments, edges: make([]childStats, segments+1)}
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	runClosedLoop(clients, warm, measure, segments, func(edge int) {
		var e error
		out.edges[edge], e = r.child.stats()
		keep(e)
		switch edge {
		case 0:
			out.mBefore, e = r.child.metrics()
			keep(e)
		case segments:
			out.mAf, e = r.child.metrics()
			keep(e)
		}
	})
	for _, c := range clients {
		r.res.Attempted += c.attempted
		r.res.Failed += c.failed
		if c.firstErr != nil {
			r.res.note("%s client: %v", c.class, c.firstErr)
		}
	}
	return out, err
}

// checkSteady marks a run whose measured phase is short of full segments
// or was still drifting.
func (r *run) checkSteady(segs []segment, segSeconds float64) {
	full := 0
	for _, s := range segs {
		if s.Done > 0 {
			full++
		}
	}
	if full < segments {
		r.res.invalid("%d of %d segments saw a completed request", full, segments)
		return
	}
	// Drift, not bursts: the medians of the first and the last three
	// segments, so one noisy slice at either end does not decide it.
	rate := func(ss []segment) float64 {
		var rs []float64
		for _, s := range ss {
			rs = append(rs, float64(s.Done)/segSeconds)
		}
		return median(rs)
	}
	first, last := rate(segs[:3]), rate(segs[len(segs)-3:])
	if last < 0.8*first || last > 1.2*first {
		r.res.invalid("not at steady state: last three segments %.1f req/s, first three %.1f", last, first)
	}
}

// loadChecks derives the layer numbers that come from the HTTP phase —
// /metrics deltas, the writer's ledger, the tail of the latency sample —
// and applies each workload's preconditions.
func (r *run) loadChecks(out *loadOutcome, lat []float64) map[string]float64 {
	m := map[string]float64{}
	delta := func(name string) float64 { return out.mAf[name] - out.mBefore[name] }
	hits, misses := delta("sqe_expansion_cache_hits_total"), delta("sqe_expansion_cache_misses_total")
	if hits+misses > 0 {
		m["core.cache_hit_ratio"] = hits / (hits + misses)
	}
	m["serve.queue_waits"] = delta("sqe_http_queue_waits_total")
	m["serve.shed"] = delta("sqe_http_shed_total")
	m["serve.timeouts"] = delta("sqe_http_timeouts_total")
	if v, eff, ok := percentile(lat, 95); ok {
		m["serve.p95_ms"] = v
		r.res.Samples["serve.p95_ms.effective_percentile"] = eff
	}
	if v, eff, ok := percentile(lat, 99); ok {
		m["serve.p99_ms"] = v
		r.res.Samples["serve.p99_ms.effective_percentile"] = eff
	}
	done, bytes := 0, int64(0)
	for _, c := range out.clients {
		if c.class == "read" {
			bytes += c.replyBytes
			for _, s := range c.segs {
				done += s.Done
			}
		}
	}
	if done > 0 {
		m["serve.resp_bytes"] = float64(bytes) / float64(done)
		m["rpc.calls_per_query"] = float64(out.last().RPCCalls-out.first().RPCCalls) / float64(done)
		m["rpc.bytes_per_query"] = float64(out.last().RPCBytes-out.first().RPCBytes) / float64(done)
	}

	switch r.wl {
	case wlSearchHot:
		if m["core.cache_hit_ratio"] < 0.99 {
			r.res.invalid("core.cache_hit_ratio %.3f < 0.99: the expansion cache should always hit here", m["core.cache_hit_ratio"])
		}
	case wlExpandWide:
		if m["core.cache_hit_ratio"] > 0.5 {
			r.res.invalid("core.cache_hit_ratio %.3f > 0.5: the key space should dwarf the cache here", m["core.cache_hit_ratio"])
		}
	case wlCoordinator:
		// Three retrievals, two shards, a stats and an eval call each. In
		// flight requests at the window's edges blur the quotient a little.
		if c := m["rpc.calls_per_query"]; c < 11.9 || c > 12.1 {
			r.res.invalid("rpc.calls_per_query %.2f, want 12", c)
		}
	case wlLiveMixed:
		writeSegs := mergeSegments(out.clients, "write")
		wqps, wp50 := segmentStats(writeSegs, out.segSeconds)
		m["ingest_docs_per_s"] = wqps * ingestBatch
		m["ingest_p50_ms"] = wp50
		if v, _, ok := percentile(allLatencies(writeSegs), 99); ok {
			m["serve.ingest_stall_p99_ms"] = v
		}
		r.ledger.mu.Lock()
		m["index.segments_mean"] = mean(r.ledger.segments)
		m["index.tombstone_ratio_max"] = r.ledger.tombRatio
		tombs := r.ledger.tombstones
		r.ledger.mu.Unlock()
		if m["index.segments_mean"] < 2 {
			r.res.invalid("index.segments_mean %.2f < 2: reads should cross several segments here", m["index.segments_mean"])
		}
		if tombs == 0 {
			r.res.invalid("no tombstones: deletes should be pending beside the reads here")
		}
	}
	return m
}

// finish closes the workload's books and returns the bytes on disk per
// live document. For live-mixed the writer first runs on to the fullest
// point of its compaction cycle and flushes, so the footprint is taken
// at the same point of the cycle in every run; then, with the index
// quiet, every judged query must rank exactly as a monolithic rebuild
// over the surviving documents does.
func (r *run) finish(segDir string) (float64, error) {
	if r.wl != wlLiveMixed {
		return float64(r.p.Meta.IndexBytes) / float64(r.p.Meta.Docs), nil
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for !r.writer.compactNext() {
		if _, err := sendIngest(hc, r.child.base, r.writer.next(), r.ledger); err != nil {
			return 0, err
		}
	}
	if _, err := sendIngest(hc, r.child.base, ingestOp{Flush: true}, r.ledger); err != nil {
		return 0, err
	}
	bytes, err := dirBytes(segDir)
	if err != nil {
		return 0, err
	}
	survivors := append(append([]document(nil), r.docs[:seedDocs]...), r.writer.live()...)
	if r.ledger.liveDocs != len(survivors) {
		r.res.Attempted++
		r.res.Failed++
		r.res.note("index holds %d live documents, the writer's window says %d", r.ledger.liveDocs, len(survivors))
	}
	want, err := monolithicRankings(r.p.Dir, survivors, r.p.Queries)
	if err != nil {
		return 0, err
	}
	for i, q := range r.p.Queries {
		c := r.calls[searchReq{kindManual, i}]
		r.res.Attempted++
		data, err := call(hc, c.method, r.child.base+c.path, c.body)
		var got []ranked
		if err == nil {
			got, _, err = parseSearch(data)
		}
		if err == nil {
			err = equalRanked(got, want[q.ID])
		}
		if err != nil {
			r.res.Failed++
			r.res.note("quiesced %s: %v", q.ID, err)
		}
	}
	return float64(bytes) / float64(len(survivors)), nil
}

// ---------------------------------------------------------------------
// Results on disk and on the last line.

func resultPath(dir string, r *result) string {
	mode := "e2e"
	if r.Trace {
		mode = "trace"
	}
	return filepath.Join(dir, fmt.Sprintf("result-%s-%s-seed%d.json", r.Workload, mode, r.Env.Seed))
}

func writeResult(dir string, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(dir, r), append(data, '\n'), 0o644)
}

// contractLine renders the result as the one JSON object the benchmark
// contract asks for on the last line of standard output.
func contractLine(r *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.EndToEnd
	if r.Trace {
		defs, vals = perLayer, r.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(line)
}

// printResult lists every metric of the result by name with its unit.
func printResult(w *os.File, r *result) {
	mode := "end-to-end"
	defs, vals := endToEnd, r.EndToEnd
	if r.Trace {
		mode, defs, vals = "per-layer", perLayer, r.PerLayer
	}
	fmt.Fprintf(w, "== %s (%s)  attempted=%d failed=%d correct=%v valid=%v\n", r.Workload, mode, r.Attempted, r.Failed, r.Correct, r.Valid)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-38s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
	var keys []string
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  samples.%-30s %14.1f\n", k, r.Samples[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
