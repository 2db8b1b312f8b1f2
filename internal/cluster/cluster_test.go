// Integration tests of the leader/standby cluster: WAL shipping, lag
// observability, partition behaviour, the standby's refusal to serve, and
// the failover-equivalence acceptance — kill the leader mid-fleet-replay
// and require the promoted standby to converge on exactly the state an
// unkilled run produces.
package cluster_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/client"
	"wilocator/internal/cluster"
	"wilocator/internal/loadtest"
	"wilocator/internal/obs"
	"wilocator/internal/server"
	"wilocator/internal/traveltime"
)

// clusterSpec mirrors the chaos harness's fleet sizing.
func clusterSpec() loadtest.StreamSpec {
	spec := loadtest.StreamSpec{
		Buses:   8,
		Phones:  3,
		Seed:    7,
		Horizon: 10 * time.Minute,
	}
	if testing.Short() {
		spec.Buses = 4
		spec.Horizon = 5 * time.Minute
	}
	return spec
}

var worldOnce struct {
	sync.Once
	w   *loadtest.World
	err error
}

func testWorld(t *testing.T) *loadtest.World {
	t.Helper()
	worldOnce.Do(func() { worldOnce.w, worldOnce.err = loadtest.BuildWorld(7) })
	if worldOnce.err != nil {
		t.Fatal(worldOnce.err)
	}
	return worldOnce.w
}

type testNode struct {
	id   string
	node *cluster.Node
	api  *httptest.Server

	mu      sync.Mutex
	ps      *loadtest.PersistentService // the System served: the leader's from the start, a standby's from its promotion
	stopped sync.Once
}

// serving returns the System this node serves, nil on an unpromoted
// standby.
func (tn *testNode) serving() *loadtest.PersistentService {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return tn.ps
}

func (tn *testNode) serve(ps *loadtest.PersistentService) {
	tn.mu.Lock()
	tn.ps = ps
	tn.mu.Unlock()
}

// shutdown stops the node as the server's exit path does: close the API
// and the node, then close the served System's read path and snapshot and
// close its store.
func (tn *testNode) shutdown(t *testing.T) {
	tn.stopped.Do(func() {
		tn.api.Close()
		if err := tn.node.Close(); err != nil {
			t.Errorf("close %s: %v", tn.id, err)
		}
		if ps := tn.serving(); ps != nil {
			_ = ps.Svc.Close()
			if err := ps.Persist.Snapshot(); err != nil {
				t.Errorf("final snapshot of %s: %v", tn.id, err)
			}
			_ = ps.Persist.Close()
		}
	})
}

// kill models kill -9 of the node: its API and streams die, its persister
// is abandoned un-flushed.
func (tn *testNode) kill() {
	tn.stopped.Do(func() {
		tn.api.Close()
		tn.node.Kill()
		if ps := tn.serving(); ps != nil {
			_ = ps.Svc.Close()
			_ = ps.Persist.Close()
		}
	})
}

type clusterOpts struct {
	preListeners     map[string]net.Listener // pre-bound repl listeners (chaos proxies dial these)
	replAddrOverride map[string]string       // topology ReplAddr (e.g. a ChaosLink front)
	heartbeat        time.Duration
	failoverAfter    time.Duration
	promotedSync     int // SyncEvery of a promoted persister (default 1)
}

// startCluster brings up one node per id over a shared world: ids[0] is
// the leader, with a WAL-backed service (SyncEvery 1); the rest are
// standbys that open a WAL-backed service over their replica when
// promoted. Each node has its own metrics registry, replication listener
// and HTTP API, wired as cmd/wilocator-server wires them.
func startCluster(t *testing.T, w *loadtest.World, now func() time.Time, ids []string, opts clusterOpts) map[string]*testNode {
	t.Helper()
	if opts.heartbeat == 0 {
		opts.heartbeat = 50 * time.Millisecond
	}
	if opts.failoverAfter == 0 {
		opts.failoverAfter = 30 * time.Second
	}
	if opts.promotedSync == 0 {
		opts.promotedSync = 1
	}
	nodes := map[string]*testNode{}
	listeners := map[string]net.Listener{}
	var topo cluster.Topology
	for i, id := range ids {
		lst := opts.preListeners[id]
		if lst == nil {
			var err error
			lst, err = net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
		}
		listeners[id] = lst
		ts := httptest.NewUnstartedServer(nil)
		replAddr := lst.Addr().String()
		if ov := opts.replAddrOverride[id]; ov != "" {
			replAddr = ov
		}
		role := cluster.RoleFollower
		if i == 0 {
			role = cluster.RoleLeader
		}
		topo.Nodes = append(topo.Nodes, cluster.NodeSpec{ID: id, Addr: "http://" + ts.Listener.Addr().String(), ReplAddr: replAddr, Role: role})
		nodes[id] = &testNode{id: id, api: ts}
	}
	for i, id := range ids {
		tn := nodes[id]
		reg := obs.NewRegistry()
		wake := cluster.NewWakeup()
		cfg := cluster.Config{
			Self:        id,
			Topology:    topo,
			ReplicaRoot: filepath.Join(t.TempDir(), id+"-replicas"),
			Wake:        wake,
			Promote: func(dir string) (http.Handler, *traveltime.Persister, error) {
				ps, err := loadtest.NewPersistentService(w, dir, server.Config{Now: now, Metrics: reg},
					traveltime.PersistConfig{SyncEvery: opts.promotedSync})
				if err != nil {
					return nil, nil, err
				}
				ps.Svc.SetClusterStatus(tn.node.Status)
				tn.serve(ps)
				return server.NewHandler(ps.Svc, server.HandlerConfig{GroupCommit: ps.Persist}), ps.Persist, nil
			},
			HeartbeatEvery: opts.heartbeat,
			FailoverAfter:  opts.failoverAfter,
			Metrics:        reg,
			Logf:           t.Logf,
			Listener:       listeners[id],
		}
		if i == 0 {
			ps, err := loadtest.NewPersistentService(w, filepath.Join(t.TempDir(), id), server.Config{Now: now, Metrics: reg},
				traveltime.PersistConfig{SyncEvery: 1, OnDurable: wake.Poke})
			if err != nil {
				t.Fatal(err)
			}
			tn.serve(ps)
			cfg.Handler = server.NewHandler(ps.Svc, server.HandlerConfig{GroupCommit: ps.Persist})
			cfg.Persister = ps.Persist
		}
		node, err := cluster.NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tn.node = node
		if ps := tn.serving(); ps != nil {
			ps.Svc.SetClusterStatus(node.Status)
		}
		if err := node.Start(t.Context()); err != nil {
			t.Fatal(err)
		}
		tn.api.Config.Handler = node
		tn.api.Start()
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.shutdown(t)
		}
	})
	return nodes
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// lag reads the replication lag of the leader's lineage from n's health
// status.
func lag(n *cluster.Node) int64 { return n.Status().Shards[0].ReplicationLagBytes }

// scrapeMetric fetches /metrics over HTTP and returns the value of the
// series whose exposition line starts with prefix (name + label set).
func scrapeMetric(t *testing.T, ts *httptest.Server, prefix string) (float64, bool) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + api.PathMetrics)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparseable metric line %q", line)
		}
		return v, true
	}
	return 0, false
}

// replayVia aliases the loadtest delivery-function replay so the cluster
// and its reference service see identical subsequences.
var replayVia = loadtest.ReplayVia

// promotedSvc waits until n has promoted its replica and returns the
// System it now serves.
func promotedSvc(t *testing.T, n *testNode) *loadtest.PersistentService {
	t.Helper()
	waitFor(t, 30*time.Second, n.id+" to promote its replica", func() bool { return n.serving() != nil })
	return n.serving()
}

// ingestVia returns a delivery function posting single reports through c.
func ingestVia(t *testing.T, c *client.Client) func(api.Report) (api.IngestResponse, error) {
	ctx := t.Context()
	return func(rep api.Report) (api.IngestResponse, error) { return c.PostReport(ctx, rep) }
}

// newClient builds a client over the nodes' API URLs, in order, with
// enough retry budget to outlast a promotion.
func newClient(t *testing.T, nodes ...*testNode) *client.Client {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.api.URL
	}
	c, err := client.NewFailover(urls, &http.Client{Timeout: 10 * time.Second},
		client.RetryConfig{MaxAttempts: 100, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFailoverEquivalence is the cluster's acceptance test: run half the
// fleet into the leader over HTTP, kill it, and require (a) the standby
// promotes the shipped replica into exactly the state an unkilled
// reference run holds at the kill point, (b) the fleet resumed on the
// promoted standby and the reference's own crash-resume converge to
// identical final stores and tallies, and (c) replication lag, leadership
// and promotions are observable in /metrics on both sides of the kill.
func TestFailoverEquivalence(t *testing.T) {
	w := testWorld(t)
	spec := clusterSpec()
	streams, err := loadtest.GenStreams(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	now := loadtest.FixedClock(loadtest.T0.Add(spec.Horizon))
	nodes := startCluster(t, w, now, []string{"n1", "n2"}, clusterOpts{failoverAfter: 2 * time.Second})
	n1, n2 := nodes["n1"], nodes["n2"]
	crashAt := loadtest.TotalReports(streams) / 2

	// Reference: one uninterrupted service fed the same global order.
	refSvc, refStore, err := loadtest.NewService(w, server.Config{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	refTally1 := replayVia(streams, 0, crashAt, refSvc.Ingest)
	if refTally1.Errors != 0 {
		t.Fatalf("reference replay errored: %v", refTally1)
	}
	liveTally1 := replayVia(streams, 0, crashAt, ingestVia(t, newClient(t, n1)))
	if liveTally1 != refTally1 {
		t.Fatalf("clustered tallies diverged before the kill:\n  cluster   %v\n  reference %v", liveTally1, refTally1)
	}

	// Drain replication: with fsync-per-record and acked-before-trim, lag 0
	// means every durable byte of the leader is fsynced on the standby.
	waitFor(t, 30*time.Second, "replication drained", func() bool {
		return lag(n1.node) == 0 && lag(n2.node) == 0
	})
	// Lag must be OBSERVABLE in /metrics before the kill, from the leader
	// (acked view) and from the standby (replica view).
	for _, c := range []struct {
		n      *testNode
		series string
		want   float64
	}{
		{n1, `wilocator_cluster_replication_lag_bytes{shard="n1"}`, 0},
		{n2, `wilocator_cluster_replication_lag_bytes{shard="n1"}`, 0},
		{n1, `wilocator_cluster_is_leader{shard="n1"}`, 1},
		{n2, `wilocator_cluster_is_leader{shard="n1"}`, 0},
	} {
		if v, ok := scrapeMetric(t, c.n.api, c.series); !ok || v != c.want {
			t.Fatalf("%s on %s before the kill: present=%v value=%v, want %v", c.series, c.n.id, ok, v, c.want)
		}
	}

	n1.kill()
	promoted := promotedSvc(t, n2)
	for series, want := range map[string]float64{
		`wilocator_cluster_promotions_total`:                  1,
		`wilocator_cluster_is_leader{shard="n1"}`:             1,
		`wilocator_cluster_replication_lag_bytes{shard="n1"}`: 0,
	} {
		if v, ok := scrapeMetric(t, n2.api, series); !ok || v != want {
			t.Fatalf("%s after the promotion: present=%v value=%v, want %v", series, ok, v, want)
		}
	}

	// (a) The promoted store must equal the unkilled reference at the kill
	// point: every record the dead leader made durable was shipped, fsynced
	// and replayed through the standard recovery path.
	if err := traveltime.Diff(refStore, promoted.Store, 1e-9); err != nil {
		t.Fatalf("promoted store diverges from the unkilled run at the kill point: %v", err)
	}

	// (b) Resume the fleet on the promoted standby. The crash loses tracker
	// state, so the reference resumes through a fresh service over the same
	// store (the repo's standard crash-resume equivalence).
	resumed, err := server.NewService(w.Dia, refStore, server.Config{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	refTally2 := replayVia(streams, crashAt, -1, resumed.Ingest)
	liveTally2 := replayVia(streams, crashAt, -1, ingestVia(t, newClient(t, n2)))
	if liveTally2 != refTally2 {
		t.Fatalf("post-promotion tallies diverged:\n  cluster   %v\n  reference %v", liveTally2, refTally2)
	}
	if err := traveltime.Diff(refStore, promoted.Store, 1e-9); err != nil {
		t.Fatalf("promoted store diverged from reference after resume: %v", err)
	}
	t.Logf("converged: phase1 %v + phase2 %v across a leader kill", liveTally1, liveTally2)
}

// TestClusterPartitionLagAndResync drives the partition and slow-follower
// fault injectors: a partitioned standby freezes its ack while the leader
// keeps ingesting (lag grows and is visible), healing drains the lag, a
// slow link still converges, and a snapshot rotation mid-stream forces a
// full resync the standby installs.
func TestClusterPartitionLagAndResync(t *testing.T) {
	w := testWorld(t)
	spec := clusterSpec()
	streams, err := loadtest.GenStreams(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	now := loadtest.FixedClock(loadtest.T0.Add(spec.Horizon))

	// The leader's replication traffic runs through a chaos proxy: the
	// standby dials the link, the link dials the leader's real listener.
	lst1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	link, err := loadtest.NewChaosLink(lst1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	nodes := startCluster(t, w, now, []string{"n1", "n2"}, clusterOpts{
		preListeners:     map[string]net.Listener{"n1": lst1},
		replAddrOverride: map[string]string{"n1": link.Addr()},
		// Partitions in this test must never trip a failover.
		failoverAfter: 5 * time.Minute,
	})
	n1, n2 := nodes["n1"], nodes["n2"]
	leader := n1.serving()

	total := loadtest.TotalReports(streams)
	step := total / 4
	if tl := replayVia(streams, 0, step, leader.Svc.Ingest); tl.Errors != 0 {
		t.Fatalf("ingest errored: %v", tl)
	}
	waitFor(t, 30*time.Second, "initial replication drain", func() bool { return lag(n1.node) == 0 })

	// Partition: the standby's ack freezes, the leader keeps committing —
	// lag must grow and stay visible from the leader.
	link.Partition(true)
	if tl := replayVia(streams, step, step, leader.Svc.Ingest); tl.Errors != 0 {
		t.Fatalf("ingest during partition errored: %v", tl)
	}
	if err := leader.Persist.Sync(); err != nil {
		t.Fatal(err)
	}
	if l := lag(n1.node); l <= 0 {
		t.Fatalf("leader-side lag during partition = %d, want > 0", l)
	} else {
		t.Logf("partition lag: %d bytes", l)
	}

	// Heal: the standby reconnects from its last offset and catches up.
	link.Partition(false)
	waitFor(t, 30*time.Second, "post-heal replication drain", func() bool { return lag(n1.node) == 0 })

	// Slow link: throughput drops but replication still converges.
	link.SetDelay(2 * time.Millisecond)
	if tl := replayVia(streams, 2*step, step, leader.Svc.Ingest); tl.Errors != 0 {
		t.Fatalf("ingest over slow link errored: %v", tl)
	}
	waitFor(t, 60*time.Second, "slow-link replication drain", func() bool { return lag(n1.node) == 0 })
	link.SetDelay(0)

	// Snapshot rotation mid-stream: the shipped generation disappears, the
	// shipper must resync with a full snapshot and the standby must land
	// on the new generation with zero lag.
	if err := leader.Persist.Snapshot(); err != nil {
		t.Fatal(err)
	}
	gen, _ := leader.Persist.ShipState()
	if tl := replayVia(streams, 3*step, -1, leader.Svc.Ingest); tl.Errors != 0 {
		t.Fatalf("ingest after rotation errored: %v", tl)
	}
	waitFor(t, 30*time.Second, "post-rotation resync", func() bool {
		sh := n2.node.Status().Shards[0]
		return sh.Generation == gen && sh.ReplicationLagBytes == 0
	})
	t.Logf("standby resynced to generation %d", gen)
}

// TestStandbyRefusesIngestUntilPromoted: a standby serves nothing while
// its leader lives. Both report doors and the reads answer 503 +
// Retry-After, and the report bodies are left unread; healthz still shows
// the replication view. Once the leader dies and the standby is promoted,
// the same doors ingest.
func TestStandbyRefusesIngestUntilPromoted(t *testing.T) {
	w := testWorld(t)
	spec := clusterSpec()
	spec.Buses, spec.Horizon = 2, 2*time.Minute
	streams, err := loadtest.GenStreams(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	now := loadtest.FixedClock(loadtest.T0.Add(spec.Horizon))
	nodes := startCluster(t, w, now, []string{"n1", "n2"}, clusterOpts{failoverAfter: time.Second})
	n1, n2 := nodes["n1"], nodes["n2"]
	rep := streams[0].Reports[0]
	line, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{api.PathReports, api.PathReportsBatch} {
		body := &countingReader{r: bytes.NewReader(append(line, '\n'))}
		rec := httptest.NewRecorder()
		n2.node.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Errorf("POST %s on the standby: status %d, Retry-After %q; want 503 with a hint",
				path, rec.Code, rec.Header().Get("Retry-After"))
		}
		if body.n != 0 {
			t.Errorf("POST %s on the standby read %d body bytes, want none", path, body.n)
		}
	}
	rec := httptest.NewRecorder()
	n2.node.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, api.PathVehicles+"?route="+rep.RouteID, nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("GET vehicles on the standby: status %d, want 503 with Retry-After", rec.Code)
	}
	var health api.HealthResponse
	getJSON(t, n2.api.URL+api.PathHealth, &health)
	if health.Cluster == nil || len(health.Cluster.Shards) != 1 || health.Cluster.Shards[0].Local {
		t.Fatalf("standby healthz cluster block = %+v, want one replicated lineage", health.Cluster)
	}
	if _, err := n1.serving().Svc.Ingest(rep); err != nil {
		t.Fatal(err)
	}

	n1.kill()
	promotedSvc(t, n2)
	resp, err := http.Post(n2.api.URL+api.PathReportsBatch, "application/x-ndjson", bytes.NewReader(append(line, '\n')))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch on the promoted standby: status %d, want 200", resp.StatusCode)
	}
	getJSON(t, n2.api.URL+api.PathHealth, &health)
	if sh := health.Cluster.Shards[0]; !sh.Local || !sh.Promoted || sh.Owner != "n2" {
		t.Fatalf("promoted healthz lineage = %+v, want local, promoted, owned by n2", sh)
	}
}

// TestClientFailsOverToPromotedStandby: a fleet replayed in NDJSON frames
// through one client listing both nodes keeps going across a leader kill —
// the client moves to the standby and waits out its promotion within its
// retry budget — and the promoted store ends Diff-equal to the
// crash-resume reference.
func TestClientFailsOverToPromotedStandby(t *testing.T) {
	w := testWorld(t)
	spec := clusterSpec()
	streams, err := loadtest.GenStreams(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	now := loadtest.FixedClock(loadtest.T0.Add(spec.Horizon))
	nodes := startCluster(t, w, now, []string{"n1", "n2"}, clusterOpts{failoverAfter: time.Second})
	n1, n2 := nodes["n1"], nodes["n2"]
	flat := loadtest.FlattenReports(streams)
	const frame = 32
	crashAt := len(flat) / 2 / frame * frame

	// Reference: one service up to the kill point, then the crash-resume
	// service over the same store.
	ref, refStore, err := loadtest.NewService(w, server.Config{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	refTally := replayVia(streams, 0, -1, func(rep api.Report) (api.IngestResponse, error) {
		if pos == crashAt {
			if ref, err = server.NewService(w.Dia, refStore, server.Config{Now: now}); err != nil {
				t.Fatal(err)
			}
		}
		pos++
		return ref.Ingest(rep)
	})

	c := newClient(t, n1, n2)
	var live loadtest.Tally
	for from := 0; from < len(flat); from += frame {
		if from == crashAt {
			waitFor(t, 30*time.Second, "replication drained", func() bool { return lag(n1.node) == 0 })
			n1.kill() // the next frame finds the leader gone
		}
		resp, err := c.PostReportBatch(t.Context(), flat[from:min(from+frame, len(flat))])
		if err != nil {
			t.Fatalf("frame at %d: %v", from, err)
		}
		live.Delivered += resp.Received
		live.Accepted += resp.Accepted
		live.Located += resp.Located
		live.LateDropped += resp.LateDropped
		live.Errors += resp.Rejected
	}
	if live != refTally {
		t.Fatalf("fleet tallies across the failover diverged:\n  cluster   %v\n  reference %v", live, refTally)
	}
	if err := traveltime.Diff(refStore, n2.serving().Store, 1e-9); err != nil {
		t.Fatalf("promoted store diverges from the crash-resume reference: %v", err)
	}
}

// countingReader counts the bytes a handler read from a request body.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// goroutinesSettle waits until the goroutine count is back at baseline.
func goroutinesSettle(t *testing.T, baseline int) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after shutdown, baseline %d:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
