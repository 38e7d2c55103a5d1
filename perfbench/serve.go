package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/rnd"
	"github.com/simrank/simpush/internal/server"
	"github.com/simrank/simpush/internal/workload"
)

const (
	// serveSetupReps is how many times a serve run sets up from scratch
	// (the warm-up runs once, on the last set-up); setup_s is the median
	// set-up plus the warm-up.
	serveSetupReps = 3

	// serveDataset is the serving graph: a power-law follower network
	// (n=100k, m=2.8M) whose popular nodes are costly hubs.
	serveDataset = "twitter-sim"

	// readRate is the fixed offered read rate, about a third of the rate
	// at which a 2-core box stops keeping up. README.md says why it is not
	// higher.
	readRate = 20.0
	zipfSkew = 1.05

	// The warm-up replays warmupRequests of a separate read trace, one
	// request at a time. That is more than it takes to fill the default
	// cache to its bound on this graph (290 to 460 requests in probes
	// that stopped once the cache stopped growing), and being a fixed
	// number it costs about the same on every seed.
	warmupRequests = 500
	warmupSalt     = 0x7761726d7570 // keeps the warm-up trace apart from the window's
	writeSalt      = 0x7772697465   // and the post-window writes apart from both

	// libraryQueries is how many of the window's topk and single-source
	// requests serve-feed runs again through the library, half before
	// the window and half after it; denseCheckNodes is how many of the
	// window's single-source reads are compared with the library.
	libraryQueries  = 500
	denseCheckNodes = 8

	// serveWrites is how many writes serve-feed makes visible on its live
	// graph after the window.
	serveWrites = 40

	// traceRing retains every request of a traced run for /debug/queries.
	traceRing = 1 << 14
)

// readClass is serve-feed's traffic: open-loop Poisson reads with Zipf
// popularity, 75% topk, 15% single-source and 10% pair, seeds pinned per
// node.
func readClass() workload.ClassSpec {
	return workload.ClassSpec{
		Name:       "reads",
		Arrival:    workload.ArrivalSpec{Process: "poisson", RateRPS: readRate},
		Popularity: workload.PopularitySpec{Dist: "zipf", S: zipfSkew},
		Mix: []workload.OpMix{
			{Op: workload.OpTopK, Weight: 0.75},
			{Op: workload.OpSingleSource, Weight: 0.15},
			{Op: workload.OpPair, Weight: 0.10},
		},
		K:          10,
		SeedPolicy: "pinned",
	}
}

// stack is one in-process simrankd: a live graph, its client, the server
// with the default Config, and a loopback listener.
type stack struct {
	g      *simpush.Graph
	d      *simpush.DynamicGraph
	c      *simpush.Client
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	snd    *sender
}

func startStack(ctx context.Context, traced bool) (*stack, error) {
	g, err := simpush.Dataset(serveDataset, 1.0)
	if err != nil {
		return nil, err
	}
	d := simpush.DynamicFromGraph(g)
	c, err := simpush.NewClient(d, simpush.Options{})
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Client: c}
	if traced {
		cfg.TraceRing = traceRing
	}
	srv, err := server.New(cfg)
	if err != nil {
		c.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	st := &stack{g: g, d: d, c: c, srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{})}
	go func() {
		defer close(st.served)
		// Serve returns once stopServing closes the server; a failure
		// before that shows up as failed requests.
		_ = st.hs.Serve(ln)
	}()
	st.snd = newSender("http://"+ln.Addr().String(), g.N())
	first := workload.Request{Op: workload.OpTopK, Node: 0, K: 10}
	if o := st.snd.do(ctx, -1, &first); o.Problem != "" {
		st.close()
		return nil, fmt.Errorf("first query: %s", o.Problem)
	}
	return st, nil
}

// stopServing shuts the HTTP side down and waits for the serve loop.
func (st *stack) stopServing() {
	if st.hs == nil {
		return
	}
	st.snd.close()
	st.hs.Close()
	<-st.served
	st.hs, st.srv = nil, nil
}

func (st *stack) close() {
	st.stopServing()
	if st.c != nil {
		st.c.Close()
		st.c = nil
	}
}

// runServe measures an in-process simrankd under open-loop reads, then
// times writes on its live graph.
func runServe(cfg runConfig) (*report, error) {
	rep := newReport(cfg, "wall.read_p50_ms")
	ctx := context.Background()

	// Set up from scratch serveSetupReps times; keep the last stack.
	var st *stack
	var setupWall, setupCPU []float64
	for i := 0; i < serveSetupReps; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		t0 := readClocks()
		var err error
		if st, err = startStack(ctx, cfg.trace); err != nil {
			return nil, err
		}
		wall, cpu := t0.since()
		setupWall = append(setupWall, wall.Seconds())
		setupCPU = append(setupCPU, cpu.Seconds())
	}
	defer st.close()
	n := st.g.N()

	t0 := readClocks()
	if err := warmUp(ctx, rep, st, cfg.seed); err != nil {
		return nil, err
	}
	warmWall, warmCPU := t0.since()
	rep.set("setup_s", quantile(setupCPU, 0.5)+warmCPU.Seconds())
	rep.set("wall.setup_s", quantile(setupWall, 0.5)+warmWall.Seconds())
	cs := st.srv.Cache().Stats()
	fmt.Printf("%-13s setup CPU: median %.3f s of %d set-ups + warm-up %.3f s (%d requests; cache %d entries, %d evictions)\n",
		cfg.workload, quantile(setupCPU, 0.5), serveSetupReps, warmCPU.Seconds(), warmupRequests, cs.Entries, cs.Evictions)

	trace, err := serveTrace(cfg.seed, cfg.seconds, n)
	if err != nil {
		return nil, err
	}
	// The library calls are split around the window so that they sample
	// the machine at two times a window apart, not in one burst.
	var lib libraryRuns
	queries := libraryRequests(trace)
	half := len(queries) / 2
	if err := lib.run(ctx, rep, st.c, queries[:half]); err != nil {
		return nil, err
	}
	before := st.srv.Stats()
	c0 := cpuNow()
	rp, err := runLoadProcess(ctx, cfg, st.snd.base, n)
	if err != nil {
		return nil, err
	}
	serving := cpuNow() - c0 // the load process's CPU is its own
	after := st.srv.Stats()
	outs, peak, start := rp.Outcomes, rp.Peak, rp.Start
	if len(outs) != len(trace) {
		return nil, fmt.Errorf("load process sent %d requests, the trace has %d", len(outs), len(trace))
	}

	var reads, late, hits, computed, bytes []float64
	for i := range outs {
		o := &outs[i]
		rep.check(o.Problem == "", "request %d (%s): %s", i, o.Op, o.Problem)
		late = append(late, ms(o.Late))
		if o.Problem != "" {
			continue
		}
		reads = append(reads, o.latency())
		bytes = append(bytes, float64(o.Bytes))
		switch o.Cache {
		case "hit":
			hits = append(hits, o.latency())
		case "computed":
			computed = append(computed, o.latency())
		}
	}
	if len(reads) == 0 {
		return nil, errors.New("no read succeeded")
	}
	fmt.Printf("%-13s read latency deciles (ms):", cfg.workload)
	for q := 0.1; q < 0.95; q += 0.1 {
		fmt.Printf(" %.1f", quantile(reads, q))
	}
	fmt.Printf("  hits %d computed %d of %d\n", len(hits), len(computed), len(reads))
	// Reads answered per CPU second of the serving process: what one core
	// sustains on this mix, cache hits, HTTP and garbage collection
	// included.
	rep.set("queries_per_cpu_s", float64(len(reads))/serving.Seconds())
	rep.set("wall.read_p50_ms", quantile(reads, 0.5))
	rep.set("wall.read_p95_ms", quantile(reads, 0.95))
	rep.set("server.hit_p50_ms", quantile(hits, 0.5))
	rep.set("server.computed_p50_ms", quantile(computed, 0.5))
	rep.set("server.response_bytes", mean(bytes))
	rep.set("load.late_p99_ms", quantile(late, 0.99))
	rep.set("load.sent", float64(len(trace)))
	rep.set("load.max_outstanding", float64(peak))
	rep.set("load.read_samples", float64(len(reads)))
	setWindowDeltas(rep, before, after)

	if cfg.trace {
		spans, joined, err := joinServerTraces(st, outs, start)
		if err != nil {
			return nil, err
		}
		spans.summarize(rep, len(outs))
		rep.set("trace.joined_ratio", joined)
		rep.set("trace.p50_ms", quantile(reads, 0.5))
		if err := spans.write(cfg); err != nil {
			return nil, err
		}
	}

	if err := denseChecks(ctx, rep, st, trace); err != nil {
		return nil, err
	}
	if err := lib.run(ctx, rep, st.c, queries[half:]); err != nil {
		return nil, err
	}
	if err := lib.report(rep); err != nil {
		return nil, err
	}
	runtime.GC()
	rep.set("heap_mb", float64(heapBytes())/1e6)
	// A write over HTTP returns before the commit, which the next read
	// pays. Time writes until they are visible instead: mutation plus
	// commit on the live graph, with the server's commit hook (delta BFS
	// and carry-forward over the full cache).
	before = st.srv.Stats()
	if err := libraryWriteProbe(rep, st.d, serveWrites, rnd.New(cfg.seed^writeSalt)); err != nil {
		return nil, err
	}
	setWriteDeltas(rep, before, st.srv.Stats())

	// What the client alone retains once the server and its cache are
	// gone.
	st.stopServing()
	runtime.GC()
	withClient := heapBytes()
	st.close()
	runtime.GC()
	rep.set("simpush.retained_bytes_per_node", float64(int64(withClient)-int64(heapBytes()))/float64(n))
	runtime.KeepAlive(st.g)

	return rep, rep.finish()
}

// serveTrace is the measured window's trace, from the workload seed.
func serveTrace(seed uint64, seconds float64, n int32) ([]workload.Request, error) {
	spec := workload.Spec{Name: "serve-feed", Duration: workload.Duration(seconds * float64(time.Second)),
		Seed: seed, Classes: []workload.ClassSpec{readClass()}}
	return spec.Trace(n)
}

// replayResult is what the load process reports on its standard output.
type replayResult struct {
	Start    time.Time `json:"start"`
	Peak     int       `json:"peak"`
	Outcomes []outcome `json:"outcomes"`
}

// runLoadProcess replays the window's trace from a separate process (this
// binary with -replay), so the sender's timers and response handling do
// not wait for the server's busy goroutines to yield a processor.
func runLoadProcess(ctx context.Context, cfg runConfig, base string, n int32) (*replayResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// The window plus generous slack: a load process that hangs is killed
	// rather than waited for forever.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(cfg.seconds*float64(time.Second))+90*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-replay", base, "-nodes", strconv.Itoa(int(n)),
		"-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load process: %w", err)
	}
	var rr replayResult
	if err := json.Unmarshal(out, &rr); err != nil {
		return nil, fmt.Errorf("load process output: %w", err)
	}
	return &rr, nil
}

// runReplay is the load process: it regenerates the window's trace from
// the seed, replays it open-loop against base and prints the outcomes.
func runReplay(cfg runConfig, base string, n int32) error {
	trace, err := serveTrace(cfg.seed, cfg.seconds, n)
	if err != nil {
		return err
	}
	snd := newSender(base, n)
	defer snd.close()
	rr := replayResult{Start: time.Now()}
	rr.Outcomes, rr.Peak = snd.replay(context.Background(), trace, rr.Start)
	return json.NewEncoder(os.Stdout).Encode(&rr)
}

// warmUp fills the cache: it replays warmupRequests of a read trace drawn
// apart from the window's, one request at a time so the cache ends in the
// same state on every run. It then runs one query per core through the
// library so every pooled engine has its scratch.
func warmUp(ctx context.Context, rep *report, st *stack, seed uint64) error {
	spec := workload.Spec{Name: "warm-up", Duration: workload.Duration(time.Duration(2*warmupRequests/readRate) * time.Second),
		Seed: seed ^ warmupSalt, Classes: []workload.ClassSpec{readClass()}}
	trace, err := spec.Trace(st.g.N())
	if err != nil {
		return err
	}
	if len(trace) < warmupRequests {
		return fmt.Errorf("warm-up trace has %d requests, want %d", len(trace), warmupRequests)
	}
	for i := range trace[:warmupRequests] {
		o := st.snd.do(ctx, -2-i, &trace[i])
		rep.check(o.Problem == "", "warm-up request %d (%s): %s", i, o.Op, o.Problem)
	}
	var wg sync.WaitGroup
	errs := make([]error, runtime.NumCPU())
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = st.c.SingleSource(ctx, int32(i), simpush.WithSeed(1))
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setWindowDeltas turns the Server.Stats snapshots around the window
// into its cache, admission and engine counters.
func setWindowDeltas(rep *report, before, after server.StatsSnapshot) {
	b, a := before.Cache, after.Cache
	hits, misses, coal := float64(a.Hits-b.Hits), float64(a.Misses-b.Misses), float64(a.Coalesced-b.Coalesced)
	rep.set("cache.hits", hits)
	rep.set("cache.misses", misses)
	rep.set("cache.coalesced", coal)
	rep.set("cache.evictions", float64(a.Evictions-b.Evictions))
	rep.set("cache.hit_ratio", ratio(hits, hits+misses+coal))

	rep.set("server.admission_waits", float64(after.Admission.Waits-before.Admission.Waits))
	rep.set("server.admission_wait_s", after.Admission.WaitTotalSeconds-before.Admission.WaitTotalSeconds)
	rep.set("server.rejected", float64(after.Admission.Rejected-before.Admission.Rejected))

	queries := float64(after.Client.Queries - before.Client.Queries)
	rep.set("core.engine_queries", queries)
	busy := 0.0
	for _, stage := range []string{"walk", "source_push", "gamma", "reverse_push"} {
		s := after.EngineStageSeconds[stage] - before.EngineStageSeconds[stage]
		busy += s
		rep.set("core."+stage+"_s", s)
		rep.set("core."+stage+"_ms", 1e3*ratio(s, queries))
	}
	// The offered rate is fixed, so reads per second of the window would
	// only echo it. Report the engine's capacity instead: queries the
	// engine completed per second it spent in them, at n=100k.
	rep.set("wall.queries_per_s", ratio(queries, busy))
}

// setWriteDeltas turns the Server.Stats snapshots around the post-window
// writes into the commit, delta and carry-forward counters.
func setWriteDeltas(rep *report, before, after server.StatsSnapshot) {
	carried := float64(after.Cache.Carried - before.Cache.Carried)
	dropped := float64(after.Cache.CarryDropped - before.Cache.CarryDropped)
	rep.set("cache.carried", carried)
	rep.set("cache.carry_dropped", dropped)
	rep.set("cache.carry_ratio", ratio(carried, carried+dropped))
	if before.Delta != nil && after.Delta != nil {
		commits := float64(after.Delta.Commits - before.Delta.Commits)
		totals := float64(after.Delta.TotalFallbacks - before.Delta.TotalFallbacks)
		rep.set("graph.commits", commits)
		rep.set("graph.total_fallbacks", totals)
		rep.set("graph.fallback_ratio", ratio(totals, commits))
		rep.set("graph.affected_nodes_mean", ratio(float64(after.Delta.AffectedNodesSum-before.Delta.AffectedNodesSum), commits))
	}
	rep.set("graph.discarded_deletions", float64(after.GraphDiscardedDeletions-before.GraphDiscardedDeletions))
}

// denseChecks asks the first denseCheckNodes distinct single-source reads
// of the window again over HTTP with dense=1 and compares each answer bit
// for bit with a Client.SingleSource call at the same epoch and seed.
func denseChecks(ctx context.Context, rep *report, st *stack, trace []workload.Request) error {
	seen := map[int32]bool{}
	for _, r := range trace {
		if len(seen) == denseCheckNodes {
			break
		}
		if r.Op != workload.OpSingleSource || seen[r.Node] {
			continue
		}
		seen[r.Node] = true
		dense, epoch, err := st.denseRead(ctx, r.Node, r.Seed)
		if err != nil {
			return fmt.Errorf("dense read of node %d: %w", r.Node, err)
		}
		res, err := st.c.SingleSource(ctx, r.Node, simpush.WithSeed(r.Seed))
		if err != nil {
			return fmt.Errorf("library query of node %d: %w", r.Node, err)
		}
		libEpoch, err := st.c.Epoch()
		rep.check(err == nil && libEpoch == epoch && bitEqual(res.Scores, dense),
			"node %d: HTTP dense answer at epoch %d differs from the library's at epoch %d (%v)", r.Node, epoch, libEpoch, err)
	}
	return nil
}

// libraryRequests returns the window's first libraryQueries topk and
// single-source requests. serve-feed runs them again as Client.SingleSource
// calls on the server's own client, with the requests' pinned seeds, for
// its per-query CPU and wall time on the served mix, its engine work
// counters, call overhead and allocations per query.
func libraryRequests(trace []workload.Request) []workload.Request {
	var out []workload.Request
	for _, r := range trace {
		if len(out) == libraryQueries {
			break
		}
		if r.Op == workload.OpTopK || r.Op == workload.OpSingleSource {
			out = append(out, r)
		}
	}
	return out
}

// libraryRuns accumulates the library calls of libraryRequests.
type libraryRuns struct {
	walls, cpus, overhead        []float64
	walks, levels, entries, attn float64
	nnz                          float64
	allocBytes, allocs           uint64
}

func (l *libraryRuns) run(ctx context.Context, rep *report, c *simpush.Client, reqs []workload.Request) error {
	var m0, m1 runtime.MemStats
	for _, r := range reqs {
		runtime.ReadMemStats(&m0)
		t0 := readClocks()
		res, err := c.SingleSource(ctx, r.Node, simpush.WithSeed(r.Seed))
		wall, cpu := t0.since()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("library query of node %d: %w", r.Node, err)
		}
		l.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		l.allocs += m1.Mallocs - m0.Mallocs
		k, bad := scanScores(res.Scores, r.Node)
		rep.check(bad == "", "library query of node %d: %s", r.Node, bad)
		d := res.Durations
		l.walls = append(l.walls, ms(wall))
		l.cpus = append(l.cpus, ms(cpu))
		l.overhead = append(l.overhead, ms(wall-d.Walk-d.SourcePush-d.Gamma-d.ReversePush))
		l.walks += float64(res.Walks)
		l.levels += float64(res.L)
		l.entries += float64(res.SourceGraphSize)
		l.attn += float64(len(res.Attention))
		l.nnz += float64(k)
	}
	return nil
}

func (l *libraryRuns) report(rep *report) error {
	if len(l.cpus) == 0 {
		return errors.New("the window has no topk or single-source request")
	}
	q := float64(len(l.cpus))
	rep.set("query_cpu_p50_ms", quantile(l.cpus, 0.5))
	rep.set("query_cpu_p95_ms", quantile(l.cpus, 0.95))
	rep.set("wall.query_p50_ms", quantile(l.walls, 0.5))
	rep.set("wall.query_p95_ms", quantile(l.walls, 0.95))
	rep.set("load.query_samples", q)
	rep.set("core.walks", l.walks/q)
	rep.set("core.levels", l.levels/q)
	rep.set("core.source_graph_entries", l.entries/q)
	rep.set("core.attention_nodes", l.attn/q)
	rep.set("core.result_nnz", l.nnz/q)
	rep.set("simpush.overhead_ms", mean(l.overhead))
	rep.set("simpush.alloc_bytes_per_query", float64(l.allocBytes)/q)
	rep.set("simpush.allocs_per_query", float64(l.allocs)/q)
	return nil
}

// denseRead fetches one seeded single-source answer as a dense vector.
func (st *stack) denseRead(ctx context.Context, u int32, seed uint64) ([]float64, uint64, error) {
	url := fmt.Sprintf("%s/v1/single-source?node=%d&seed=%d&dense=1", st.snd.base, u, seed)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := st.snd.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var a response
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		return nil, 0, err
	}
	return a.Dense, a.Epoch, nil
}

// joinServerTraces builds the traced run's spans: the sender's span of
// each request, joined by X-Request-Id with the server's own record from
// /debug/queries (server, snapshot, cache, admission and engine stages).
func joinServerTraces(st *stack, outs []outcome, base time.Time) (*spanLog, float64, error) {
	resp, err := st.snd.client.Get(st.snd.base + "/debug/queries")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Queries []struct {
			RequestID  string    `json:"request_id"`
			Start      time.Time `json:"start"`
			DurationMs float64   `json:"duration_ms"`
			Spans      []struct {
				Name    string  `json:"name"`
				StartMs float64 `json:"start_ms"`
				DurMs   float64 `json:"duration_ms"`
			} `json:"spans"`
		} `json:"queries"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&body); err != nil {
		return nil, 0, fmt.Errorf("decoding /debug/queries: %w", err)
	}
	byID := make(map[string]int, len(body.Queries))
	for i, q := range body.Queries {
		byID[q.RequestID] = i
	}
	serverName := map[string]struct{ name, parent string }{
		"snapshot":       {"graph.snapshot", "server"},
		"cache":          {"cache", "server"},
		"admission_wait": {"admission", "cache"},
		"walk":           {"core.walk", "cache"},
		"source_push":    {"core.source_push", "cache"},
		"gamma":          {"core.gamma", "cache"},
		"reverse_push":   {"core.reverse_push", "cache"},
	}
	log := &spanLog{base: base}
	joined := 0
	for i := range outs {
		o := &outs[i]
		log.add(i, "load.op", "", o.Due, o.Done)
		qi, ok := byID[requestID(i)]
		if !ok {
			continue
		}
		joined++
		q := body.Queries[qi]
		at := func(offMs float64) time.Time { return q.Start.Add(time.Duration(offMs * float64(time.Millisecond))) }
		log.add(i, "server", "load.op", q.Start, at(q.DurationMs))
		for _, s := range q.Spans {
			if m, ok := serverName[s.Name]; ok {
				log.add(i, m.name, m.parent, at(s.StartMs), at(s.StartMs+s.DurMs))
			}
		}
	}
	return log, float64(joined) / float64(len(outs)), nil
}
