package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/simrank/simpush"
)

// span is one timed call at a layer boundary. The spans of one operation
// share req; parent names the enclosing span of the same operation.
type span struct {
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_ms"` // since the start of the run
	End    float64 `json:"end_ms"`
}

// spanLayer maps each span name to the layer its self time is charged to.
var spanLayer = map[string]string{
	"load.op":           "load",
	"server":            "server",
	"graph.snapshot":    "graph",
	"cache":             "cache",
	"admission":         "admission",
	"simpush.call":      "simpush",
	"core.walk":         "core",
	"core.source_push":  "core",
	"core.gamma":        "core",
	"core.reverse_push": "core",
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	base  time.Time
	spans []span
}

// newSpanLog preallocates room for capacity spans, so recording does not
// allocate inside the measured loop.
func newSpanLog(capacity int) *spanLog {
	return &spanLog{base: time.Now(), spans: make([]span, 0, capacity)}
}

func (l *spanLog) add(req int, name, parent string, start, end time.Time) {
	l.spans = append(l.spans, span{Req: req, Name: name, Parent: parent,
		Start: ms(start.Sub(l.base)), End: ms(end.Sub(l.base))})
}

// engineCall records one library call and its four stage spans. The
// stage durations are measured by the engine; their start times are laid
// out back to back from the call start, which the engine does not report.
func (l *spanLog) engineCall(req int, t0, t1 time.Time, d simpush.StageDurations) {
	l.add(req, "simpush.call", "", t0, t1)
	at := t0
	for _, st := range []struct {
		name string
		dur  time.Duration
	}{{"core.walk", d.Walk}, {"core.source_push", d.SourcePush}, {"core.gamma", d.Gamma}, {"core.reverse_push", d.ReversePush}} {
		l.add(req, st.name, "simpush.call", at, at.Add(st.dur))
		at = at.Add(st.dur)
	}
}

// summarize reports, per layer, the mean self time per operation: a
// span's duration minus the durations of its direct children.
func (l *spanLog) summarize(rep *report, ops int) {
	type key struct {
		req  int
		name string
	}
	childDur := make(map[key]float64)
	for _, s := range l.spans {
		if s.Parent != "" {
			childDur[key{s.Req, s.Parent}] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	roots := 0.0
	for _, s := range l.spans {
		d := s.End - s.Start
		if s.Parent == "" {
			roots += d
		}
		self[spanLayer[s.Name]] += d - childDur[key{s.Req, s.Name}]
	}
	for _, layer := range []string{"load", "server", "graph", "cache", "admission", "simpush", "core"} {
		rep.set("trace."+layer+"_self_ms", self[layer]/float64(ops))
	}
	rep.set("trace.op_ms", roots/float64(ops))
	rep.set("trace.spans", float64(len(l.spans)))
}

// write stores the spans as JSON lines in the output directory.
func (l *spanLog) write(cfg runConfig) error {
	if cfg.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
