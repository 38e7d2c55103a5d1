package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// A metricSpec is one metric the benchmark reports on every workload: its
// name, its unit, which direction is better and, for an end-to-end
// metric, the share of the parent's median by which it may worsen before
// a change counts as a regression. `perfbench -spec` writes these tables
// out as BENCHMARK.json.
type metricSpec struct {
	name, unit, better string
	bound              float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndSpecs are the metrics a user of the system sees. Every workload
// reports every one of them and none is ever 0; README.md says how each
// is measured on each workload. The timings are CPU time of the process
// under test (see cpuNow), because wall time on a shared VM stretches
// with the time the hypervisor gives to other guests.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"query_cpu_p50_ms", "ms", lower, 0.25},
	{"query_cpu_p95_ms", "ms", lower, 0.25},
	{"queries_per_cpu_s", "1/s", higher, 0.25},
	{"write_cpu_p50_ms", "ms", lower, 0.25},
	{"heap_mb", "MB", lower, 0.2},
}

// perLayerSpecs are the metrics of single layers. A layer a workload does
// not exercise reports 0 (engine-cold never touches the cache).
var perLayerSpecs = []metricSpec{
	// Wall-clock counterparts of the end-to-end timings. They include
	// CPU steal, so they are reported but not gated.
	{"wall.setup_s", "s", lower, 0},
	{"wall.query_p50_ms", "ms", lower, 0},
	{"wall.query_p95_ms", "ms", lower, 0},
	{"wall.queries_per_s", "1/s", higher, 0},
	{"wall.read_p50_ms", "ms", lower, 0},
	{"wall.read_p95_ms", "ms", lower, 0},
	{"wall.write_p50_ms", "ms", lower, 0},
	// internal/core + internal/walk: the four SimPush stages.
	{"core.walk_ms", "ms", lower, 0},
	{"core.source_push_ms", "ms", lower, 0},
	{"core.gamma_ms", "ms", lower, 0},
	{"core.reverse_push_ms", "ms", lower, 0},
	{"core.walk_s", "s", lower, 0},
	{"core.source_push_s", "s", lower, 0},
	{"core.gamma_s", "s", lower, 0},
	{"core.reverse_push_s", "s", lower, 0},
	{"core.engine_queries", "count", lower, 0},
	{"core.walks", "count", lower, 0},
	{"core.levels", "count", lower, 0},
	{"core.source_graph_entries", "count", lower, 0},
	{"core.attention_nodes", "count", lower, 0},
	{"core.result_nnz", "count", lower, 0},
	// simpush: Client, its engine pool and snapshot rebind.
	{"simpush.overhead_ms", "ms", lower, 0},
	{"simpush.alloc_bytes_per_query", "B", lower, 0},
	{"simpush.allocs_per_query", "count", lower, 0},
	{"simpush.retained_bytes_per_node", "B", lower, 0},
	// internal/cache: LRU, single-flight and CarryForward.
	{"cache.hits", "count", higher, 0},
	{"cache.misses", "count", lower, 0},
	{"cache.coalesced", "count", higher, 0},
	{"cache.evictions", "count", lower, 0},
	{"cache.hit_ratio", "ratio", higher, 0},
	{"cache.carried", "count", higher, 0},
	{"cache.carry_dropped", "count", lower, 0},
	{"cache.carry_ratio", "ratio", higher, 0},
	// internal/server: handlers, JSON encoding and admission.
	{"server.hit_p50_ms", "ms", lower, 0},
	{"server.computed_p50_ms", "ms", lower, 0},
	{"server.response_bytes", "B", lower, 0},
	{"server.admission_waits", "count", lower, 0},
	{"server.admission_wait_s", "s", lower, 0},
	{"server.rejected", "count", lower, 0},
	// graph.Dynamic: commit, snapshot and EpochDelta.
	{"graph.commits", "count", lower, 0},
	{"graph.total_fallbacks", "count", lower, 0},
	{"graph.fallback_ratio", "ratio", lower, 0},
	{"graph.affected_nodes_mean", "count", lower, 0},
	{"graph.discarded_deletions", "count", lower, 0},
	// The load generator itself.
	{"load.late_p99_ms", "ms", lower, 0},
	{"load.sent", "count", higher, 0},
	{"load.max_outstanding", "count", lower, 0},
	{"load.error_pct", "%", lower, 0},
	{"load.query_samples", "count", higher, 0},
	{"load.read_samples", "count", higher, 0},
	{"load.write_samples", "count", higher, 0},
	// The host: the share of CPU time the hypervisor gave to other guests
	// during the run. When it grows, every timing stretches with it.
	{"host.steal_pct", "%", lower, 0},
	// Self time per layer from the traced run (mean per operation).
	{"trace.p50_ms", "ms", lower, 0},
	{"trace.op_ms", "ms", lower, 0},
	{"trace.load_self_ms", "ms", lower, 0},
	{"trace.server_self_ms", "ms", lower, 0},
	{"trace.graph_self_ms", "ms", lower, 0},
	{"trace.cache_self_ms", "ms", lower, 0},
	{"trace.admission_self_ms", "ms", lower, 0},
	{"trace.simpush_self_ms", "ms", lower, 0},
	{"trace.core_self_ms", "ms", lower, 0},
	{"trace.spans", "count", higher, 0},
	{"trace.joined_ratio", "ratio", higher, 0},
}

type metric struct {
	name, unit string
	value      float64
}

// maxProblems bounds how many correctness violations are kept for
// printing; all of them are counted.
const maxProblems = 10

// report collects one workload run: its operation counts, correctness
// violations and metric values.
type report struct {
	workload string
	traced   bool

	attempted, failed int
	problems          []string

	// primaryP50 names the untraced wall-clock median that trace.p50_ms
	// is compared with to give the tracing overhead.
	primaryP50 string

	vals     map[string]float64
	endToEnd []metric
	perLayer []metric

	steal0, total0 uint64 // CPU time counters when the run began
}

func newReport(cfg runConfig, primaryP50 string) *report {
	r := &report{workload: cfg.workload, traced: cfg.trace, primaryP50: primaryP50, vals: map[string]float64{}}
	r.steal0, r.total0 = cpuTimes()
	return r
}

// cpuTimes returns the steal and total CPU time of the machine so far, in
// clock ticks, from /proc/stat; zeros where that is not available.
func cpuTimes() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func (r *report) set(name string, v float64) { r.vals[name] = v }

func (r *report) value(name string) float64 { return r.vals[name] }

// check counts one checked operation and records a violation if ok is
// false. Measured loops call pass and fail instead, because building the
// arguments of check allocates.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		r.pass()
	} else {
		r.fail(format, args...)
	}
}

func (r *report) pass() { r.attempted++ }

func (r *report) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// finish lays the values out in the canonical order. A missing or zero
// end-to-end metric is a benchmark bug (comparisons between commits judge
// each one as a share of its median), so it is an error.
func (r *report) finish() error {
	if r.attempted > 0 {
		r.set("load.error_pct", 100*float64(r.failed)/float64(r.attempted))
	}
	steal, total := cpuTimes()
	r.set("host.steal_pct", 100*ratio(float64(steal-r.steal0), float64(total-r.total0)))
	for _, s := range endToEndSpecs {
		v, ok := r.vals[s.name]
		if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("end-to-end metric %s has no usable value (%v)", s.name, v)
		}
		r.endToEnd = append(r.endToEnd, metric{s.name, s.unit, v})
	}
	for _, s := range perLayerSpecs {
		v := r.vals[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.perLayer = append(r.perLayer, metric{s.name, s.unit, v})
	}
	return nil
}

func (r *report) print() {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Printf("%-13s run %s: %d operations checked, %d failed\n", r.workload, mode, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Printf("%-13s violation: %s\n", r.workload, p)
	}
	for _, m := range r.endToEnd {
		fmt.Printf("%-13s %-34s %14.4f %s\n", r.workload, m.name, m.value, m.unit)
	}
	for _, m := range r.perLayer {
		fmt.Printf("%-13s %-34s %14.4f %s\n", r.workload, m.name, m.value, m.unit)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// cpuNow returns the CPU time this process has used so far: every thread,
// the garbage collector's included, but not the processes it starts. The
// kernel charges a thread only for the time it ran, and with paravirtual
// steal accounting that leaves out the time the hypervisor gave the vCPU
// to other guests, which a wall clock counts.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// clocks reads the wall clock and the process CPU clock together.
type clocks struct {
	wall time.Time
	cpu  time.Duration
}

func readClocks() clocks { return clocks{time.Now(), cpuNow()} }

// since returns the wall and CPU time that passed since c was read.
func (c clocks) since() (wall, cpu time.Duration) {
	now := readClocks()
	return now.wall.Sub(c.wall), now.cpu - c.cpu
}
