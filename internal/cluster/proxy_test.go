package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/obs"
	"github.com/simrank/simpush/internal/server"
)

// clusterFixture is a live leader + two followers behind a proxy, all on
// httptest listeners.
type clusterFixture struct {
	proxy        *httptest.Server
	set          *Set
	leader       *httptest.Server
	followers    []*httptest.Server
	followerSrvs []*server.Server
}

func (c *clusterFixture) leaderName() string { return strings.TrimPrefix(c.leader.URL, "http://") }

// newReplicaServer builds one simrankd-equivalent server over the shared
// deterministic base graph.
func newReplicaServer(t *testing.T, role server.Role, leaderURL string) *server.Server {
	t.Helper()
	g, err := simpush.SyntheticWebGraph(300, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	client, err := simpush.NewClient(simpush.DynamicFromGraph(g), simpush.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	srv, err := server.New(server.Config{Client: client, Role: role, LeaderURL: leaderURL, TraceRing: 16})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// startCluster brings up leader + 2 followers + proxy and waits until
// every replica is routable.
func startCluster(t *testing.T, policy string) *clusterFixture {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	leaderSrv := newReplicaServer(t, server.RoleLeader, "")
	lts := httptest.NewServer(leaderSrv.Handler())
	t.Cleanup(lts.Close)

	c := &clusterFixture{leader: lts}
	urls := []string{lts.URL}
	for i := 0; i < 2; i++ {
		fsrv := newReplicaServer(t, server.RoleFollower, lts.URL)
		fsrv.StartReplication(ctx)
		fts := httptest.NewServer(fsrv.Handler())
		t.Cleanup(fts.Close)
		c.followers = append(c.followers, fts)
		c.followerSrvs = append(c.followerSrvs, fsrv)
		urls = append(urls, fts.URL)
	}

	set, err := NewSet(SetConfig{Replicas: urls, ProbeTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.set = set
	p, err := New(Config{Set: set, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	c.proxy = httptest.NewServer(p.Handler())
	t.Cleanup(c.proxy.Close)

	waitFor(t, 10*time.Second, "all replicas routable", func() bool {
		set.ProbeOnce(ctx)
		return len(set.Routable()) == 3 && set.Leader() != nil
	})
	// Cleanups run LIFO: cancel the replication loops first so the
	// httptest servers don't wait out a parked long-poll on Close.
	t.Cleanup(cancel)
	return c
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// get fetches url and returns status, the replica header and the decoded
// JSON body.
func get(t *testing.T, url string) (int, string, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var body map[string]any
	raw, _ := io.ReadAll(resp.Body)
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode, resp.Header.Get(ReplicaHeader), body
}

func post(t *testing.T, url, body string) (int, string, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	raw, _ := io.ReadAll(resp.Body)
	if len(raw) > 0 {
		json.Unmarshal(raw, &decoded)
	}
	return resp.StatusCode, resp.Header.Get(ReplicaHeader), decoded
}

// TestClusterWriteConvergesBitIdentical is the tentpole cluster test
// (run under -race in CI): a POST /v1/edges through the proxy lands on
// the leader, streams to every follower, and once lag drains the same
// seeded query returns the same epoch and bit-identical scores on all
// three replicas.
func TestClusterWriteConvergesBitIdentical(t *testing.T) {
	c := startCluster(t, "hash")

	status, via, body := post(t, c.proxy.URL+"/v1/edges", `{"edges":[{"from":1,"to":200},{"from":200,"to":3}]}`)
	if status != http.StatusOK {
		t.Fatalf("proxied write = %d (%v)", status, body)
	}
	if via != c.leaderName() {
		t.Fatalf("write served by %q, want leader %q", via, c.leaderName())
	}
	wantEpoch := body["epoch"].(float64)
	if wantEpoch != 2 {
		t.Fatalf("write committed at epoch %v, want 2 (boot=1)", wantEpoch)
	}

	// Every follower must reach the write's epoch.
	for i, f := range c.followers {
		f := f
		waitFor(t, 10*time.Second, fmt.Sprintf("follower %d at epoch %v", i, wantEpoch), func() bool {
			code, _, stats := get(t, f.URL+"/statsz")
			if code != http.StatusOK {
				return false
			}
			rep, ok := stats["replication"].(map[string]any)
			return ok && rep["applied_epoch"].(float64) == wantEpoch && rep["lag"].(float64) == 0
		})
	}

	// Same-epoch scores are bit-identical across all three replicas.
	const q = "/v1/single-source?node=1&seed=42&dense=1"
	var ref []any
	for i, ts := range append([]*httptest.Server{c.leader}, c.followers...) {
		code, _, body := get(t, ts.URL+q)
		if code != http.StatusOK {
			t.Fatalf("replica %d query = %d", i, code)
		}
		if got := body["epoch"].(float64); got != wantEpoch {
			t.Fatalf("replica %d answered at epoch %v, want %v", i, got, wantEpoch)
		}
		scores := body["dense_scores"].([]any)
		if i == 0 {
			ref = scores
			continue
		}
		if len(scores) != len(ref) {
			t.Fatalf("replica %d score length %d != %d", i, len(scores), len(ref))
		}
		for j := range ref {
			if scores[j].(float64) != ref[j].(float64) {
				t.Fatalf("replica %d diverges from leader at node %d: %v vs %v", i, j, scores[j], ref[j])
			}
		}
	}
}

// TestProxyCacheAffinityIsSticky: under the hash policy, repeated
// queries for one node always land on the same replica, and different
// nodes spread across more than one replica.
func TestProxyCacheAffinityIsSticky(t *testing.T) {
	c := startCluster(t, "hash")
	owners := map[int]string{}
	for round := 0; round < 3; round++ {
		for node := 0; node < 12; node++ {
			code, via, _ := get(t, fmt.Sprintf("%s/v1/single-source?node=%d&seed=1", c.proxy.URL, node))
			if code != http.StatusOK {
				t.Fatalf("node %d round %d = %d", node, round, code)
			}
			if round == 0 {
				owners[node] = via
			} else if owners[node] != via {
				t.Fatalf("node %d moved from %s to %s with a stable roster", node, owners[node], via)
			}
		}
	}
	distinct := map[string]bool{}
	for _, v := range owners {
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("12 nodes all routed to one replica %v — no affinity spread", owners)
	}
}

// TestProxyFailsOverOnReplicaError: a replica that accepts probes but
// fails queries gets one retry on another replica; the client sees 200.
func TestProxyFailsOverOnReplicaError(t *testing.T) {
	good := newReplicaServer(t, server.RoleStandalone, "")
	gts := httptest.NewServer(good.Handler())
	defer gts.Close()

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			fmt.Fprint(w, `{"status":"ok"}`)
		case "/statsz":
			fmt.Fprint(w, `{"epoch":1}`)
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer bad.Close()

	set, err := NewSet(SetConfig{Replicas: []string{bad.URL, gts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	set.ProbeOnce(context.Background())
	p, err := New(Config{Set: set, Policy: "round-robin"})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(p.Handler())
	defer pts.Close()

	goodName := strings.TrimPrefix(gts.URL, "http://")
	for i := 0; i < 6; i++ { // round-robin guarantees some first-hit the bad one
		code, via, body := get(t, pts.URL+"/v1/single-source?node=1&seed=1")
		if code != http.StatusOK {
			t.Fatalf("request %d = %d (%v)", i, code, body)
		}
		if via != goodName {
			t.Fatalf("request %d served by %q, want failover to %q", i, via, goodName)
		}
	}
	if st := p.Stats(); st.Retries == 0 || st.Failovers == 0 {
		t.Fatalf("stats = retries %d failovers %d, want both > 0", st.Retries, st.Failovers)
	}
}

// TestProxyAvoidsDrainingReplica: a draining replica (healthz 503) drops
// out of the read set after the next probe and reads keep succeeding.
func TestProxyAvoidsDrainingReplica(t *testing.T) {
	c := startCluster(t, "round-robin")

	// Drain follower 0 the way SIGTERM does.
	resp, err := http.Get(c.followers[0].URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	c.followerSrvs[0].Drain()
	drained := strings.TrimPrefix(c.followers[0].URL, "http://")
	waitFor(t, 5*time.Second, "drained follower out of the read set", func() bool {
		c.set.ProbeOnce(context.Background())
		return len(c.set.Routable()) == 2
	})
	for i := 0; i < 9; i++ {
		code, via, _ := get(t, fmt.Sprintf("%s/v1/single-source?node=%d&seed=1", c.proxy.URL, i))
		if code != http.StatusOK {
			t.Fatalf("read %d after drain = %d", i, code)
		}
		if via == drained {
			t.Fatalf("read %d routed to the draining replica", i)
		}
	}

	// Proxy health stays up with 2/3 replicas routable.
	code, _, body := get(t, c.proxy.URL+"/healthz")
	if code != http.StatusOK || body["routable"].(float64) != 2 {
		t.Fatalf("proxy healthz after drain = %d %v, want 200 with 2 routable", code, body)
	}
}

// TestProxyStatszAggregates: the proxy's /statsz carries the aggregate
// counters plus one block per replica, with top-level names simbench
// already understands.
func TestProxyStatszAggregates(t *testing.T) {
	c := startCluster(t, "hash")
	for i := 0; i < 4; i++ {
		if code, _, _ := get(t, fmt.Sprintf("%s/v1/single-source?node=%d&seed=1", c.proxy.URL, i)); code != 200 {
			t.Fatalf("warm-up read %d failed", i)
		}
	}
	code, _, body := get(t, c.proxy.URL+"/statsz")
	if code != http.StatusOK {
		t.Fatalf("proxy statsz = %d", code)
	}
	if body["proxy"] != true || body["policy"] != "hash" {
		t.Fatalf("statsz identity = proxy:%v policy:%v", body["proxy"], body["policy"])
	}
	if got := body["requests"].(float64); got < 4 {
		t.Fatalf("requests = %v, want >= 4", got)
	}
	if got := body["graph_n"].(float64); got != 300 {
		t.Fatalf("graph_n = %v, want 300", got)
	}
	reps := body["replicas"].([]any)
	if len(reps) != 3 {
		t.Fatalf("statsz lists %d replicas, want 3", len(reps))
	}
	var leaders, proxied int
	for _, r := range reps {
		rm := r.(map[string]any)
		if rm["leader"] == true {
			leaders++
		}
		proxied += int(rm["requests_proxied"].(float64))
		if rm["status"] != "ok" {
			t.Fatalf("replica %v status = %v, want ok", rm["name"], rm["status"])
		}
	}
	if leaders != 1 {
		t.Fatalf("%d replicas claim leadership, want exactly 1", leaders)
	}
	if proxied < 4 {
		t.Fatalf("per-replica proxied counts sum to %d, want >= 4", proxied)
	}
}

// TestProxyStatsSumsCarryCounters: the aggregate cache block sums every
// replica's carry-forward counters like the other cache counters, so
// cache.carried behind the proxy is not stuck at 0.
func TestProxyStatsSumsCarryCounters(t *testing.T) {
	set, err := NewSet(SetConfig{Replicas: []string{"127.0.0.1:1", "127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range set.Replicas() {
		st := server.StatsSnapshot{}
		st.Cache.Hits = uint64(10 * (i + 1))
		st.Cache.Carried = uint64(3 * (i + 1))
		st.Cache.CarryDropped = uint64(i + 1)
		r.stats.Store(&st)
	}
	p, err := New(Config{Set: set})
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Stats()
	if snap.Cache.Hits != 30 {
		t.Fatalf("cache.hits = %d, want 30", snap.Cache.Hits)
	}
	if snap.Cache.Carried != 9 || snap.Cache.CarryDropped != 3 {
		t.Fatalf("cache.carried = %d, carry_dropped = %d; want 9, 3", snap.Cache.Carried, snap.Cache.CarryDropped)
	}
}

// TestProxyNoRoutableReplica: with nothing routable the proxy sheds with
// 503 no_replica rather than hanging or guessing.
func TestProxyNoRoutableReplica(t *testing.T) {
	set, err := NewSet(SetConfig{Replicas: []string{"127.0.0.1:1"}, ProbeTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	set.ProbeOnce(context.Background())
	p, err := New(Config{Set: set})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/single-source?node=1", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("read with empty cluster = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/edges", strings.NewReader(`{"from":0,"to":1}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write with no leader = %d, want 503", rec.Code)
	}
}

// TestProxyRequestIDPropagation: a client-supplied X-Request-Id survives
// proxy → replica → response, and the serving replica's /debug/queries
// records the trace under that id with per-stage engine spans.
func TestProxyRequestIDPropagation(t *testing.T) {
	c := startCluster(t, "hash")

	req, err := http.NewRequest(http.MethodGet, c.proxy.URL+"/v1/single-source?node=9&seed=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "prop-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied read = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != "prop-test-1" {
		t.Fatalf("response request id = %q, want the client's prop-test-1", got)
	}
	via := resp.Header.Get(ReplicaHeader)
	if via == "" {
		t.Fatal("response missing the replica header")
	}

	// The serving replica's trace ring must hold the id, with the engine
	// stages of the computed query spelled out.
	code, _, dbg := get(t, "http://"+via+"/debug/queries")
	if code != http.StatusOK {
		t.Fatalf("replica /debug/queries = %d", code)
	}
	queries, _ := dbg["queries"].([]any)
	var trace map[string]any
	for _, q := range queries {
		qm := q.(map[string]any)
		if qm["request_id"] == "prop-test-1" {
			trace = qm
			break
		}
	}
	if trace == nil {
		t.Fatalf("replica %s trace ring has no record for prop-test-1: %v", via, dbg)
	}
	if trace["cache"] != "computed" {
		t.Errorf("trace cache outcome = %v, want computed", trace["cache"])
	}
	spans := map[string]bool{}
	if ss, ok := trace["spans"].([]any); ok {
		for _, sp := range ss {
			spans[sp.(map[string]any)["name"].(string)] = true
		}
	}
	for _, want := range []string{"walk", "source_push", "gamma", "reverse_push"} {
		if !spans[want] {
			t.Errorf("trace missing engine span %q (has %v)", want, spans)
		}
	}

	// Without a client id the proxy mints one and still echoes it.
	resp2, err := http.Get(c.proxy.URL + "/v1/topk?node=4&k=3&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get(obs.RequestIDHeader) == "" {
		t.Error("proxy did not mint a request id for an id-less request")
	}
}

// TestAffinityNodeExtraction covers the routing-key parser.
func TestAffinityNodeExtraction(t *testing.T) {
	cases := []struct {
		path, body string
		want       int32
		ok         bool
	}{
		{"/v1/single-source?node=17", "", 17, true},
		{"/v1/topk?node=3&k=10", "", 3, true},
		{"/v1/pair?u=5&v=9", "", 5, true},
		{"/v1/batch", `{"nodes":[8,1,2]}`, 8, true},
		{"/v1/batch", `{"nodes":[]}`, 0, false},
		{"/v1/single-source", "", 0, false},
		{"/v1/single-source?node=bogus", "", 0, false},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodGet, tc.path, nil)
		node, ok := affinityNode(r, []byte(tc.body))
		if node != tc.want || ok != tc.ok {
			t.Errorf("affinityNode(%s, %q) = (%d, %v), want (%d, %v)", tc.path, tc.body, node, ok, tc.want, tc.ok)
		}
	}
}
