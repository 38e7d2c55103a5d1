package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/exact"
	"github.com/simrank/simpush/internal/rnd"
)

const (
	// engineDataset is the engine-cold graph: hub-heavy enough that a
	// query builds a source graph of ~300k entries.
	engineDataset = "dblp-sim"

	// engineSetupReps is how many times an engine-cold run sets up from
	// scratch; setup_s is the median.
	engineSetupReps = 9

	// countedPrefix is how many leading engine-cold queries the work
	// counters and allocation figures are taken over, so that they
	// repeat exactly for a seed however many queries the window fits.
	countedPrefix = 32

	// rerunChecks is how many leading queries are re-run with the same
	// seed and must give bit-identical scores.
	rerunChecks = 4

	// exactN, exactQueries and exactEps define the accuracy check on a
	// small stand-in against the exact power method.
	exactN       = 1000
	exactQueries = 3
	exactEps     = 0.02

	// libraryWrites is the number of engine-cold library writes
	// (AddEdge or RemoveEdge, each followed by the commit that makes it
	// visible) timed after the window.
	libraryWrites = 300
)

// runEngineCold measures the library alone: one caller, a closed loop of
// Client.SingleSource calls on distinct uniform nodes, each with a fresh
// seed. No HTTP and no cache are involved.
func runEngineCold(cfg runConfig) (*report, error) {
	rep := newReport(cfg, "wall.query_p50_ms")
	ctx := context.Background()
	root := rnd.New(cfg.seed)
	nodeRNG, seedRNG, writeRNG := root.Split(), root.Split(), root.Split()

	var (
		g   *simpush.Graph
		c   *simpush.Client
		err error
	)
	var setupWall, setupCPU []float64
	for i := 0; i < engineSetupReps; i++ {
		if c != nil {
			c.Close()
		}
		g, c = nil, nil
		runtime.GC()
		t0 := readClocks()
		if g, err = simpush.Dataset(engineDataset, 1.0); err != nil {
			return nil, err
		}
		if c, err = simpush.NewClient(g, simpush.Options{}); err != nil {
			return nil, err
		}
		if _, err = c.SingleSource(ctx, 0, simpush.WithSeed(1)); err != nil {
			return nil, fmt.Errorf("first query: %w", err)
		}
		wall, cpu := t0.since()
		setupWall = append(setupWall, wall.Seconds())
		setupCPU = append(setupCPU, cpu.Seconds())
	}
	rep.set("setup_s", quantile(setupCPU, 0.5))
	rep.set("wall.setup_s", quantile(setupWall, 0.5))

	n := g.N()
	nodes := nodeRNG.Perm(int(n)) // distinct, uniform
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = seedRNG.Uint64()
	}

	var (
		walls, cpus, overhead        []float64
		stageSum                     [4]float64 // seconds
		walks, levels, entries, attn float64
		nnzSum                       float64
		kept                         [][]float64
		ms0, ms1                     runtime.MemStats
		prefixDone                   int
		spans                        *spanLog
		window                       = time.Duration(cfg.seconds * float64(time.Second))
		expectedCap                  = 4096
	)
	walls = make([]float64, 0, expectedCap)
	cpus = make([]float64, 0, expectedCap)
	overhead = make([]float64, 0, expectedCap)
	kept = make([][]float64, 0, rerunChecks)
	if cfg.trace {
		spans = newSpanLog(6 * expectedCap)
	}

	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := readClocks()
	for i := 0; i < int(n) && (i == 0 || time.Since(start.wall) < window); i++ {
		u := nodes[i]
		c0 := cpuNow()
		t0 := time.Now()
		res, err := c.SingleSource(ctx, u, simpush.WithSeed(seeds[i]))
		t1 := time.Now()
		cpu := cpuNow() - c0
		if i+1 == countedPrefix {
			runtime.ReadMemStats(&ms1)
			prefixDone = countedPrefix
		}
		if err != nil {
			rep.fail("query %d (node %d): %v", i, u, err)
			continue
		}
		nnz, bad := scanScores(res.Scores, u)
		if bad != "" {
			rep.fail("query %d (node %d): %s", i, u, bad)
		} else {
			rep.pass()
		}

		wall := t1.Sub(t0)
		d := res.Durations
		stages := d.Walk + d.SourcePush + d.Gamma + d.ReversePush
		walls = append(walls, ms(wall))
		cpus = append(cpus, ms(cpu))
		overhead = append(overhead, ms(wall-stages))
		for j, s := range [4]time.Duration{d.Walk, d.SourcePush, d.Gamma, d.ReversePush} {
			stageSum[j] += s.Seconds()
		}
		if i < countedPrefix {
			walks += float64(res.Walks)
			levels += float64(res.L)
			entries += float64(res.SourceGraphSize)
			attn += float64(len(res.Attention))
			nnzSum += float64(nnz)
		}
		if i < rerunChecks {
			kept = append(kept, res.Scores)
		}
		if spans != nil {
			spans.engineCall(i, t0, t1, d)
		}
	}
	elapsed, busy := start.since()
	if prefixDone == 0 {
		runtime.ReadMemStats(&ms1)
		prefixDone = len(walls)
	}
	nq := len(walls)
	if nq == 0 {
		return nil, fmt.Errorf("no query completed")
	}

	rep.set("query_cpu_p50_ms", quantile(cpus, 0.5))
	rep.set("query_cpu_p95_ms", quantile(cpus, 0.95))
	rep.set("queries_per_cpu_s", float64(nq)/busy.Seconds())
	rep.set("wall.query_p50_ms", quantile(walls, 0.5))
	rep.set("wall.query_p95_ms", quantile(walls, 0.95))
	rep.set("wall.queries_per_s", float64(nq)/elapsed.Seconds())

	stageNames := [4]string{"walk", "source_push", "gamma", "reverse_push"}
	for j, name := range stageNames {
		rep.set("core."+name+"_ms", 1e3*stageSum[j]/float64(nq))
		rep.set("core."+name+"_s", stageSum[j])
	}
	rep.set("core.engine_queries", float64(nq))
	pre := float64(min(countedPrefix, nq))
	rep.set("core.walks", walks/pre)
	rep.set("core.levels", levels/pre)
	rep.set("core.source_graph_entries", entries/pre)
	rep.set("core.attention_nodes", attn/pre)
	rep.set("core.result_nnz", nnzSum/pre)
	rep.set("simpush.overhead_ms", mean(overhead))
	rep.set("simpush.alloc_bytes_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(prefixDone))
	rep.set("simpush.allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs)/float64(prefixDone))
	rep.set("load.sent", float64(nq))
	rep.set("load.max_outstanding", 1)
	rep.set("load.query_samples", float64(nq))
	rep.set("load.read_samples", float64(nq))

	// Same (node, seed) must give bit-identical scores.
	for i, want := range kept {
		res, err := c.SingleSource(ctx, nodes[i], simpush.WithSeed(seeds[i]))
		rep.check(err == nil && bitEqual(res.Scores, want), "re-run of query %d (node %d) is not bit-identical (err %v)", i, nodes[i], err)
	}
	kept = nil

	if err := checkExact(ctx, rep, nodeRNG, seedRNG); err != nil {
		return nil, err
	}

	if err := libraryWriteProbe(rep, simpush.DynamicFromGraph(g), libraryWrites, writeRNG); err != nil {
		return nil, err
	}
	rep.set("graph.commits", libraryWrites)

	if spans != nil {
		spans.summarize(rep, nq)
		rep.set("trace.p50_ms", quantile(walls, 0.5))
		rep.set("trace.joined_ratio", 1) // every span is the benchmark's own
		if err := spans.write(cfg); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	withClient := heapBytes()
	rep.set("heap_mb", float64(withClient)/1e6)
	c.Close()
	c = nil
	runtime.GC()
	rep.set("simpush.retained_bytes_per_node", float64(int64(withClient)-int64(heapBytes()))/float64(n))
	runtime.KeepAlive(g)

	return rep, rep.finish()
}

// scanScores checks one single-source answer — Scores[u] == 1 and every
// score in [0, 1] — and counts its non-zero entries.
func scanScores(scores []float64, u int32) (nnz int, problem string) {
	if int(u) >= len(scores) || scores[u] != 1 {
		return 0, "self-similarity is not 1"
	}
	for v, s := range scores {
		if !(s >= 0 && s <= 1) {
			return 0, fmt.Sprintf("score of node %d is %v, outside [0,1]", v, s)
		}
		if s != 0 {
			nnz++
		}
	}
	return nnz, ""
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkExact compares a few seeded queries on a small stand-in of the
// same dataset against the exact power method: every score must be
// within ε.
func checkExact(ctx context.Context, rep *report, nodeRNG, seedRNG *rnd.Source) error {
	g, err := simpush.Dataset(engineDataset, float64(exactN)/60000)
	if err != nil {
		return err
	}
	truth, err := exact.AllPairs(g, exact.Options{})
	if err != nil {
		return fmt.Errorf("exact oracle: %w", err)
	}
	c, err := simpush.NewClient(g, simpush.Options{Epsilon: exactEps})
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i < exactQueries; i++ {
		u := nodeRNG.Int31n(g.N())
		res, err := c.SingleSource(ctx, u, simpush.WithSeed(seedRNG.Uint64()))
		if err != nil {
			rep.check(false, "exact check on node %d: %v", u, err)
			continue
		}
		worst := 0.0
		for v, s := range res.Scores {
			worst = math.Max(worst, math.Abs(s-truth.At(u, int32(v))))
		}
		rep.check(worst <= exactEps, "node %d of the n=%d stand-in is %.4f from the exact scores (ε=%v)", u, g.N(), worst, exactEps)
	}
	return nil
}

// libraryWriteProbe times writes straight on a dynamic graph: each is one
// AddEdge (or the RemoveEdge undoing it) plus the commit that makes it
// visible to queries, including any commit hook. Every commit must
// advance the epoch by one and leave the edge count right. It sets the
// median CPU and wall time per write.
func libraryWriteProbe(rep *report, d *simpush.DynamicGraph, writes int, rng *rnd.Source) error {
	base, epoch, err := d.SnapshotEpoch()
	if err != nil {
		return err
	}
	walls := make([]float64, 0, writes)
	cpus := make([]float64, 0, writes)
	var a, b int32
	for i := 0; i < writes; i++ {
		t0 := readClocks()
		if i%2 == 0 {
			a, b = rng.Int31n(base.N()), rng.Int31n(base.N())
			if err := d.AddEdge(a, b); err != nil {
				return err
			}
		} else {
			d.RemoveEdge(a, b)
		}
		snap, next, err := d.SnapshotEpoch()
		wall, cpu := t0.since()
		walls = append(walls, ms(wall))
		cpus = append(cpus, ms(cpu))
		if err != nil {
			return fmt.Errorf("library write %d: %w", i, err)
		}
		wantM := base.M() + int64(1-i%2)
		rep.check(next == epoch+1 && snap.M() == wantM,
			"library write %d: epoch %d→%d, m=%d (want %d)", i, epoch, next, snap.M(), wantM)
		epoch = next
	}
	rep.set("write_cpu_p50_ms", quantile(cpus, 0.5))
	rep.set("wall.write_p50_ms", quantile(walls, 0.5))
	rep.set("load.write_samples", float64(writes))
	return nil
}

func heapBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
