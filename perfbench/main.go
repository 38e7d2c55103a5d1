// Command perfbench is the repository benchmark: it runs one workload
// (or all of them) against the simpush library and the simrankd serving
// stack, checks the answers, and prints every end-to-end and per-layer
// metric with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}, where metrics
// holds the end-to-end metrics with -trace 0 and the per-layer metrics
// with -trace 1.
//
// It drives the program only through public entry points (simpush.Client,
// server.New(...).Handler() on a loopback listener, Server.Stats) and
// receives only generated inputs: graphs from the fixed dataset
// generators, query nodes, seeds, read traces and writes from -seed. See README.md for the
// workloads, the metrics and what each per-layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads maps each workload name to its runner, in report order, with
// the one-line reason for it that BENCHMARK.json gives.
var workloads = []struct {
	name, why string
	run       func(cfg runConfig) (*report, error)
}{
	{"engine-cold", "library alone on dblp-sim (n=60k): closed loop of distinct uniform seeded queries, " +
		"no HTTP and no cache, so engine stage changes show undiluted", runEngineCold},
	{"serve-feed", "simrankd on twitter-sim (n=100k, m=2.8M) at 20 rps open-loop Zipf reads: " +
		"the cache runs full, misses land on hubs; then 40 commits on the live graph", runServe},
}

// runSeconds is the measured window of one run, in seconds.
const runSeconds = 30

// runConfig is what one workload run needs from the command line.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
}

func main() {
	var (
		workload = flag.String("workload", "", "engine-cold | serve-feed | all")
		seed     = flag.Uint64("seed", 1, "workload seed: query nodes, per-query seeds and traffic traces")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured window, in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run: record spans and report the per-layer metrics")
		outDir   = flag.String("out-dir", "", "directory for span files and the full JSON report (empty = none)")
		replay   = flag.String("replay", "", "internal: run as serve-feed's load process against this base URL")
		nodes    = flag.Int("nodes", 0, "internal: graph node count for -replay")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json (workloads, metrics, bounds) and exit")
	)
	flag.Parse()
	if *spec {
		if err := printSpec(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}

	var err error
	if *replay != "" {
		err = runReplay(cfg, *replay, int32(*nodes))
	} else if cfg.workload == "all" {
		err = runAll(cfg)
	} else {
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func lookup(name string) (func(runConfig) (*report, error), error) {
	for _, w := range workloads {
		if w.name == name {
			return w.run, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runOne runs a single workload and prints its metrics, ending with the
// result line for the selected metric class.
func runOne(cfg runConfig) error {
	run, err := lookup(cfg.workload)
	if err != nil {
		return err
	}
	m := readMachine()
	m.print()
	rep, err := run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep.print()
	if err := writeReport(cfg, m, []*report{rep}); err != nil {
		return err
	}
	metrics := rep.endToEnd
	if cfg.trace {
		metrics = rep.perLayer
	}
	return printResult(rep.attempted, rep.failed, metrics)
}

// runAll runs every workload untraced and then traced, prints all
// metrics plus the tracing overhead, and ends with one combined result
// line whose metric names are prefixed by the workload.
func runAll(cfg runConfig) error {
	m := readMachine()
	m.print()
	var reps []*report
	var all []metric
	attempted, failed := 0, 0
	for _, w := range workloads {
		var plain *report
		for _, traced := range []bool{false, true} {
			c := cfg
			c.workload, c.trace = w.name, traced
			rep, err := w.run(c)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			rep.print()
			reps = append(reps, rep)
			attempted += rep.attempted
			failed += rep.failed
			if !traced {
				plain = rep
				all = append(all, prefixed(w.name, rep.endToEnd)...)
				continue
			}
			all = append(all, prefixed(w.name, rep.perLayer)...)
			ov := metric{name: "trace.overhead_ms", unit: "ms",
				value: rep.value("trace.p50_ms") - plain.value(rep.primaryP50)}
			fmt.Printf("%-13s %-34s %14.4f %s  (traced p50 minus untraced %s)\n",
				w.name, ov.name, ov.value, ov.unit, rep.primaryP50)
			all = append(all, prefixed(w.name, []metric{ov})...)
		}
	}
	if err := writeReport(cfg, m, reps); err != nil {
		return err
	}
	return printResult(attempted, failed, all)
}

func prefixed(workload string, ms []metric) []metric {
	out := make([]metric, len(ms))
	for i, m := range ms {
		m.name = workload + "." + m.name
		out[i] = m
	}
	return out
}

// printResult writes the final JSON result line.
func printResult(attempted, failed int, ms []metric) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]val{}}
	for _, m := range ms {
		out.Metrics[m.name] = val{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printSpec prints BENCHMARK.json: how to run the benchmark, its
// workloads and its metrics with their bounds.
func printSpec() error {
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []metricJSON   `json:"end_to_end"`
		PerLayer   []metricJSON   `json:"per_layer"`
	}{Command: []string{"bash", "perfbench/run.sh"}, Paths: []string{"perfbench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEndSpecs {
		bound := m.bound
		doc.EndToEnd = append(doc.EndToEnd, metricJSON{m.name, m.unit, m.better, &bound})
	}
	for _, m := range perLayerSpecs {
		doc.PerLayer = append(doc.PerLayer, metricJSON{Name: m.name, Unit: m.unit, Better: m.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// machine identifies the box a result came from, so results are only
// compared across like machines.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readMachine() machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return m
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			m.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return m
}

func (m machine) print() {
	fmt.Printf("machine nproc=%d gomaxprocs=%d go=%s cpu=%q\n", m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.CPUModel)
}

// writeReport stores the full result — machine block and every metric of
// every run — as JSON in the output directory.
func writeReport(cfg runConfig, m machine, reps []*report) error {
	if cfg.outDir == "" {
		return nil
	}
	type runJSON struct {
		Workload  string             `json:"workload"`
		Seed      uint64             `json:"seed"`
		Seconds   float64            `json:"seconds"`
		Traced    bool               `json:"traced"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Problems  []string           `json:"problems,omitempty"`
		EndToEnd  map[string]float64 `json:"end_to_end"`
		PerLayer  map[string]float64 `json:"per_layer"`
		Units     map[string]string  `json:"units"`
	}
	doc := struct {
		Time    string    `json:"time"`
		Machine machine   `json:"machine"`
		Runs    []runJSON `json:"runs"`
	}{Time: time.Now().UTC().Format(time.RFC3339), Machine: m}
	for _, r := range reps {
		rj := runJSON{Workload: r.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: r.traced,
			Attempted: r.attempted, Failed: r.failed, Problems: r.problems,
			EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}, Units: map[string]string{}}
		for _, x := range r.endToEnd {
			rj.EndToEnd[x.name], rj.Units[x.name] = x.value, x.unit
		}
		for _, x := range r.perLayer {
			rj.PerLayer[x.name], rj.Units[x.name] = x.value, x.unit
		}
		doc.Runs = append(doc.Runs, rj)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("report-%s-seed%d.json", cfg.workload, cfg.seed)
	if len(reps) == 1 && reps[0].traced {
		name = fmt.Sprintf("report-%s-seed%d-traced.json", cfg.workload, cfg.seed)
	}
	return os.WriteFile(filepath.Join(cfg.outDir, name), append(b, '\n'), 0o644)
}
