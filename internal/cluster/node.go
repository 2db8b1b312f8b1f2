package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/obs"
	"wilocator/internal/traveltime"
)

// Wakeup broadcasts "the durable frontier advanced" from a persister to
// every shipping connection. The caller creates it first, wires Poke into
// traveltime.PersistConfig.OnDurable, and hands it to Config.Wake; without
// one the shippers fall back to heartbeat-paced polling.
type Wakeup struct {
	mu sync.Mutex
	ch chan struct{}
}

// NewWakeup returns a ready Wakeup.
func NewWakeup() *Wakeup { return &Wakeup{ch: make(chan struct{})} }

// Poke signals every waiter. It matches PersistConfig.OnDurable and is
// called with the persister's lock held, so it only swaps a channel.
func (w *Wakeup) Poke(gen uint64, durable int64) {
	w.mu.Lock()
	close(w.ch)
	w.ch = make(chan struct{})
	w.mu.Unlock()
}

// wait returns a channel closed at the next Poke. Grab it BEFORE reading
// the frontier you plan to act on, so an advance between the read and the
// select is never missed.
func (w *Wakeup) wait() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ch
}

// Config assembles one cluster node.
type Config struct {
	// Self is this node's ID in Topology.
	Self string
	// Topology is the full static node set, identical on every node.
	Topology Topology
	// ReplicaRoot is the directory under which a standby keeps its replica
	// of the leader's WAL (see traveltime.ReplicaDirFor).
	ReplicaRoot string

	// Handler and Persister are the leader's System: the HTTP API the node
	// serves and the WAL lineage it ships to the standbys. Both are nil on
	// a standby, which gets them from Promote.
	Handler   http.Handler
	Persister *traveltime.Persister
	// Wake, when set, wakes shippers on fsync instead of polling; wire its
	// Poke into the Persister's PersistConfig.OnDurable.
	Wake *Wakeup

	// Promote turns a standby into the one service once the leader is
	// declared dead and this node is its designated survivor. dir is the
	// closed replica directory. Promote opens a System over it exactly as
	// a restarted leader opens its own persistence directory
	// (traveltime.OpenPersister truncates a shipped tail torn mid-frame)
	// and returns that System's handler and persister. Required on a
	// standby.
	Promote func(dir string) (http.Handler, *traveltime.Persister, error)

	// HeartbeatEvery paces leader heartbeats on idle streams (default
	// 500 ms). FailoverAfter is how long a standby tolerates silence from
	// the leader before declaring it dead (default 3 s; must comfortably
	// exceed HeartbeatEvery). DialTimeout bounds one connect attempt
	// (default 1 s) and WriteTimeout one stream write (default 5 s).
	HeartbeatEvery time.Duration
	FailoverAfter  time.Duration
	DialTimeout    time.Duration
	WriteTimeout   time.Duration

	// Metrics, when set, receives the cluster instruments (replication lag,
	// leadership, promotions). A standby serves it on /metrics until it is
	// promoted; pass the same registry to the promoted System.
	Metrics *obs.Registry
	// Logf, when set, receives cluster lifecycle events (connects,
	// resyncs, failovers). Nil silences them.
	Logf func(format string, args ...any)
	// Listener, when set, is the pre-bound replication listener (tests use
	// one to grab a free port); otherwise the node listens on Self's
	// ReplAddr.
	Listener net.Listener
}

func (c Config) withDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.FailoverAfter <= 0 {
		c.FailoverAfter = 3 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	return c
}

// followerTrack is the leader-side replication state of one standby. The
// acked offset survives disconnects deliberately: during a partition the
// durable frontier keeps advancing over a frozen ack, so the lag gauge
// grows — exactly the signal an operator needs.
type followerTrack struct {
	gen       uint64
	acked     int64
	connected bool
}

// Node is one member of the cluster. The leader serves its System and
// ships its WAL to every standby. A standby replicates that WAL, refuses
// service until promoted, and becomes the one service when the leader
// dies. Start it once; it is the node's HTTP handler.
type Node struct {
	cfg    Config
	self   NodeSpec
	leader NodeSpec
	runner *replicaRunner // a standby's replica of the leader; nil on the leader

	ctx    context.Context
	cancel context.CancelFunc
	lst    net.Listener
	wg     sync.WaitGroup

	serving atomic.Pointer[http.Handler] // nil while a standby

	mu        sync.Mutex
	persist   *traveltime.Persister // the lineage served here: the leader's own, or the promoted replica
	promoted  bool
	owner     string                    // the node serving the lineage
	followers map[string]*followerTrack // standby node ID → ack track
	conns     map[net.Conn]struct{}     // live stream conns, closed on Kill
	killed    bool

	promotions atomic.Uint64
}

// NewNode validates cfg and assembles a node. Call Start to go live.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	self, ok := cfg.Topology.Node(cfg.Self)
	if !ok {
		return nil, fmt.Errorf("cluster: self %q not in topology", cfg.Self)
	}
	leader, _ := cfg.Topology.Leader()
	n := &Node{
		cfg:       cfg,
		self:      self,
		leader:    leader,
		owner:     leader.ID,
		followers: map[string]*followerTrack{},
		conns:     map[net.Conn]struct{}{},
	}
	switch {
	case self.isLeader():
		if cfg.Handler == nil || cfg.Persister == nil {
			return nil, fmt.Errorf("cluster: leader node %s needs Handler and Persister", cfg.Self)
		}
		n.persist = cfg.Persister
		n.serving.Store(&cfg.Handler)
	case cfg.Promote == nil || cfg.ReplicaRoot == "":
		return nil, fmt.Errorf("cluster: standby node %s needs Promote and ReplicaRoot", cfg.Self)
	}
	return n, nil
}

// Start opens the replication listener and, on a standby, begins
// replicating the leader. ctx bounds the node's lifetime.
func (n *Node) Start(ctx context.Context) error {
	n.ctx, n.cancel = context.WithCancel(ctx)
	lst := n.cfg.Listener
	if lst == nil {
		var err error
		lst, err = (&net.ListenConfig{}).Listen(n.ctx, "tcp", n.self.ReplAddr)
		if err != nil {
			return fmt.Errorf("cluster: listen %s: %w", n.self.ReplAddr, err)
		}
	}
	n.lst = lst
	if !n.self.isLeader() {
		// The replica directory recovers any state left by a previous
		// process incarnation.
		rep, err := traveltime.OpenReplica(traveltime.ReplicaDirFor(n.cfg.ReplicaRoot, n.leader.ID))
		if err != nil {
			lst.Close()
			return fmt.Errorf("cluster: open replica of %s: %w", n.leader.ID, err)
		}
		n.runner = newReplicaRunner(n, n.leader, rep)
		n.wg.Add(1)
		go func() { defer n.wg.Done(); n.runner.run(n.ctx) }()
	}
	n.registerMetrics()
	n.wg.Add(1)
	go func() { defer n.wg.Done(); n.acceptLoop() }()
	return nil
}

// ReplListenAddr is the bound address of the replication listener.
func (n *Node) ReplListenAddr() string { return n.lst.Addr().String() }

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

func (n *Node) acceptLoop() {
	for {
		conn, err := n.lst.Accept()
		if err != nil {
			return // listener closed (Kill/Close)
		}
		if !n.trackConn(conn) {
			conn.Close()
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer n.untrackConn(conn)
			n.serveShip(conn)
		}()
	}
}

// trackConn registers a live stream connection so Kill can sever it; it
// refuses (returns false) once the node is killed or closed.
func (n *Node) trackConn(c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.killed {
		return false
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *Node) untrackConn(c net.Conn) {
	c.Close()
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// ServeHTTP serves the node's API. The leader, and a standby once
// promoted, hand every request to their System's handler. A standby
// before that answers /v1/healthz with its replication view and /metrics
// with the cluster instruments; every other request gets 503 +
// Retry-After with its body unread, so a client moves on to the next URL
// it lists.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := n.serving.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	switch {
	case r.URL.Path == api.PathHealth:
		_ = json.NewEncoder(w).Encode(api.HealthResponse{OK: true, Cluster: n.Status()})
	case r.URL.Path == api.PathMetrics && n.cfg.Metrics != nil:
		w.Header().Set("Content-Type", obs.ContentType)
		_ = n.cfg.Metrics.WritePrometheus(w)
	default:
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(api.Error{Message: "cluster: " + n.self.ID + " is a standby; it serves nothing until promoted"})
	}
}

// promote turns this standby into the one service: close the replica,
// let Promote open a System over its directory through the standard
// recovery path, and serve that System from now on.
func (n *Node) promote(rep *traveltime.Replica) error {
	dir := rep.Dir()
	if err := rep.Close(); err != nil {
		return fmt.Errorf("cluster: close replica of %s: %w", n.leader.ID, err)
	}
	h, p, err := n.cfg.Promote(dir)
	if err != nil {
		return fmt.Errorf("cluster: open replica of %s: %w", n.leader.ID, err)
	}
	n.mu.Lock()
	n.persist, n.promoted = p, true
	n.mu.Unlock()
	n.serving.Store(&h)
	n.promotions.Add(1)
	st := p.Stats()
	n.logf("cluster %s: promoted the replica of %s (replayed %d records, truncated %d torn bytes)",
		n.self.ID, n.leader.ID, st.WALReplayed, st.WALSkippedBytes)
	return nil
}

// lag is the replication lag of the leader's lineage in bytes, from this
// node's point of view: on the leader, the durable frontier minus the
// slowest standby's ack (the whole frontier before any standby acked); on
// a standby, the leader's advertised frontier minus the local replica; 0
// once promoted, since a promoted node ships to nobody.
func (n *Node) lag() int64 {
	// Read the acked offsets while holding the lock: the ack-reader
	// goroutines mutate followerTrack under n.mu.
	n.mu.Lock()
	p, promoted := n.persist, n.promoted
	var minAcked int64
	first := true
	for _, tr := range n.followers {
		if first || tr.acked < minAcked {
			minAcked, first = tr.acked, false
		}
	}
	n.mu.Unlock()
	var lag int64
	switch {
	case promoted:
		return 0
	case p != nil:
		_, durable := p.ShipState()
		lag = durable - minAcked
	default:
		lag = n.runner.leaderDurable.Load() - n.runner.localLen.Load()
	}
	return max(lag, 0)
}

// Status reports this node's cluster view for /v1/healthz: its one
// lineage, the leader's.
func (n *Node) Status() *api.ClusterStatus {
	role := RoleFollower
	if n.self.isLeader() {
		role = RoleLeader
	}
	n.mu.Lock()
	p, promoted, owner := n.persist, n.promoted, n.owner
	n.mu.Unlock()
	sh := api.ShardStatus{
		Owner:               owner,
		Origin:              n.leader.ID,
		Local:               p != nil,
		Promoted:            promoted,
		ReplicationLagBytes: n.lag(),
	}
	if p != nil {
		sh.Generation, sh.WALDurableBytes = p.ShipState()
	} else {
		sh.Generation, sh.WALDurableBytes = n.runner.gen.Load(), n.runner.localLen.Load()
	}
	return &api.ClusterStatus{NodeID: n.self.ID, Role: string(role), Shards: []api.ShardStatus{sh}}
}

// registerMetrics publishes the cluster instruments: the lineage's lag and
// leadership gauges (labelled with the leader's ID) and the promotion
// counter.
func (n *Node) registerMetrics() {
	reg := n.cfg.Metrics
	if reg == nil {
		return
	}
	origin := obs.L("shard", n.leader.ID)
	reg.GaugeFunc("wilocator_cluster_replication_lag_bytes",
		"Replication lag of the leader's WAL in bytes, as seen from this node (leader: durable minus slowest standby ack; standby: leader durable minus local replica; 0 once promoted).",
		func() float64 { return float64(n.lag()) }, origin)
	reg.GaugeFunc("wilocator_cluster_is_leader",
		"1 when this node serves the lineage (as the leader or by promotion), 0 when it only replicates it.",
		func() float64 {
			if n.serving.Load() != nil {
				return 1
			}
			return 0
		}, origin)
	reg.CounterFunc("wilocator_cluster_promotions_total",
		"Replica promotions this node performed after a leader loss.",
		n.promotions.Load)
}

// sever stops the node abruptly: cancel everything, close the listener and
// every live stream, and wait for the node's goroutines. It reports false
// when the node was already stopped.
func (n *Node) sever() (bool, error) {
	n.mu.Lock()
	if n.killed {
		n.mu.Unlock()
		return false, nil
	}
	n.killed = true
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	n.cancel()
	err := n.lst.Close()
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	return true, err
}

// Kill severs the node without flushing or closing anything, modelling a
// process death as the peers observe it. Test hook.
func (n *Node) Kill() { n.sever() }

// Close shuts the node down gracefully: stop shipping and replicating,
// then close the replica. The served System, the leader's own or the
// promoted one, is caller-owned and left open.
func (n *Node) Close() error {
	stopped, err := n.sever()
	if !stopped || n.runner == nil {
		return err
	}
	return errors.Join(err, n.runner.rep.Close())
}
