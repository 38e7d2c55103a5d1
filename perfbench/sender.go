package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/simrank/simpush/internal/workload"
)

// outcome is what the sender saw for one request of a trace. The load
// process reports outcomes as JSON; times are wall-clock, so they line up
// with the server's trace records across the two processes.
type outcome struct {
	Op      workload.Op   `json:"op"`
	Due     time.Time     `json:"due"`
	Done    time.Time     `json:"done"`
	Late    time.Duration `json:"late"`            // how late the sender itself ran (see replay)
	Cache   string        `json:"cache,omitempty"` // the response's "cache" field on reads
	Bytes   int           `json:"bytes,omitempty"`
	Problem string        `json:"problem,omitempty"` // transport error, bad status or wrong answer
}

// latency is the time from when the request was due to when its
// response had been read, so a stalled sender cannot hide queueing.
func (o *outcome) latency() float64 { return ms(o.Done.Sub(o.Due)) }

// sender replays a workload trace against a simrankd over HTTP.
type sender struct {
	base   string
	client *http.Client
	n      int32 // node count, for answer validation
	limit  int   // outstanding requests and connections: one per core
}

func newSender(base string, n int32) *sender {
	limit := runtime.NumCPU()
	tr := &http.Transport{
		MaxConnsPerHost:     limit,
		MaxIdleConnsPerHost: limit,
		DisableCompression:  true,
	}
	return &sender{base: base, client: &http.Client{Transport: tr, Timeout: time.Minute}, n: n, limit: limit}
}

func (s *sender) close() { s.client.CloseIdleConnections() }

func requestID(i int) string { return "pb-" + strconv.Itoa(i) }

// replay sends every request of trace at start+At (open loop), with at
// most s.limit outstanding. When the limit is reached the sender waits;
// the wait counts in the request's latency, which runs from its due time.
func (s *sender) replay(ctx context.Context, trace []workload.Request, start time.Time) ([]outcome, int) {
	out := make([]outcome, len(trace))
	sem := make(chan struct{}, s.limit)
	var (
		wg             sync.WaitGroup
		inflight, peak atomic.Int64
	)
	lastSent := start
	for i := range trace {
		due := start.Add(trace[i].At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		// The sender's own lateness: how long after the request could
		// first go (its due time, or the previous send if the cap held
		// that one back past it) the sender got to it.
		late := time.Since(due)
		if lastSent.After(due) {
			late = time.Since(lastSent)
		}
		sem <- struct{}{}
		lastSent = time.Now()
		if cur := inflight.Add(1); cur > peak.Load() {
			peak.Store(cur)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := s.do(ctx, i, &trace[i])
			o.Due, o.Late = due, late
			out[i] = o
			inflight.Add(-1)
			<-sem
		}(i)
	}
	wg.Wait()
	return out, int(peak.Load())
}

// response is the union of the fields the benchmark checks in simrankd's
// JSON answers.
type response struct {
	Node    *int32    `json:"node"`
	U       *int32    `json:"u"`
	V       *int32    `json:"v"`
	Epoch   uint64    `json:"epoch"`
	Cache   string    `json:"cache"`
	Results []entry   `json:"results"`
	Scores  []entry   `json:"scores"`
	NNZ     int       `json:"nnz"`
	Dense   []float64 `json:"dense_scores"`
	Score   *float64  `json:"score"`
}

type entry struct {
	Node  int32   `json:"node"`
	Score float64 `json:"score"`
}

// do sends one request and validates the answer.
func (s *sender) do(ctx context.Context, id int, r *workload.Request) outcome {
	o := outcome{Op: r.Op}
	req, err := s.build(ctx, r)
	if err != nil {
		o.Problem = err.Error()
		o.Done = time.Now()
		return o
	}
	req.Header.Set("X-Request-Id", requestID(id))
	resp, err := s.client.Do(req)
	if err != nil {
		o.Problem = "transport: " + err.Error()
		o.Done = time.Now()
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.Done = time.Now()
	o.Bytes = len(body)
	if err != nil {
		o.Problem = "reading body: " + err.Error()
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.Problem = fmt.Sprintf("status %d: %.200s", resp.StatusCode, body)
		return o
	}
	var a response
	if err := json.Unmarshal(body, &a); err != nil {
		o.Problem = "decoding answer: " + err.Error()
		return o
	}
	o.Cache = a.Cache
	o.Problem = s.validate(r, &a)
	return o
}

func (s *sender) build(ctx context.Context, r *workload.Request) (*http.Request, error) {
	q := url.Values{}
	if r.Seed != 0 {
		q.Set("seed", strconv.FormatUint(r.Seed, 10))
	}
	var path string
	switch r.Op {
	case workload.OpTopK:
		path = "/v1/topk"
		q.Set("node", strconv.Itoa(int(r.Node)))
		q.Set("k", strconv.Itoa(r.K))
	case workload.OpSingleSource:
		path = "/v1/single-source"
		q.Set("node", strconv.Itoa(int(r.Node)))
	case workload.OpPair:
		path = "/v1/pair"
		q.Set("u", strconv.Itoa(int(r.Node)))
		q.Set("v", strconv.Itoa(int(r.Node2)))
	default:
		return nil, fmt.Errorf("op %s is not part of any benchmark workload", r.Op)
	}
	return http.NewRequestWithContext(ctx, http.MethodGet, s.base+path+"?"+q.Encode(), nil)
}

// validate checks an answer against what the request asked for; it
// returns "" when the answer is well-formed.
func (s *sender) validate(r *workload.Request, a *response) string {
	inRange := func(e entry) bool { return e.Node >= 0 && e.Node < s.n && e.Score >= 0 && e.Score <= 1 }
	switch a.Cache {
	case "hit", "computed", "shared":
	default:
		return fmt.Sprintf("%s: unknown cache outcome %q", r.Op, a.Cache)
	}
	switch r.Op {
	case workload.OpTopK:
		if a.Node == nil || *a.Node != r.Node || len(a.Results) > r.K {
			return fmt.Sprintf("topk node %d: wrong node or %d > k results", r.Node, len(a.Results))
		}
		for i, e := range a.Results {
			if !inRange(e) || e.Node == r.Node || (i > 0 && e.Score > a.Results[i-1].Score) {
				return fmt.Sprintf("topk node %d: bad entry %d %+v", r.Node, i, e)
			}
		}
	case workload.OpSingleSource:
		if a.Node == nil || *a.Node != r.Node || a.NNZ != len(a.Scores) {
			return fmt.Sprintf("single-source node %d: wrong node or nnz", r.Node)
		}
		self := false
		for _, e := range a.Scores {
			if !inRange(e) || e.Score == 0 {
				return fmt.Sprintf("single-source node %d: bad entry %+v", r.Node, e)
			}
			self = self || (e.Node == r.Node && e.Score == 1)
		}
		if !self {
			return fmt.Sprintf("single-source node %d: self-similarity is not 1", r.Node)
		}
	case workload.OpPair:
		if a.U == nil || a.V == nil || *a.U != r.Node || *a.V != r.Node2 || a.Score == nil ||
			!inRange(entry{Node: r.Node2, Score: *a.Score}) || (r.Node == r.Node2 && *a.Score != 1) {
			return fmt.Sprintf("pair (%d,%d): bad answer", r.Node, r.Node2)
		}
	}
	return ""
}
