// Command wilocator-server runs the WiLocator back-end over a synthetic
// city: it builds the road network and AP deployment, constructs the Signal
// Voronoi Diagram and serves the JSON HTTP API that phones (POST /v1/reports,
// NDJSON frames on POST /v1/reports/batch) and rider apps (GET /v1/vehicles,
// /v1/arrivals, /v1/trafficmap, /v1/routes) talk to.
//
// Usage:
//
//	wilocator-server [-addr :8421] [-network vancouver|campus] [-seed 42]
//	                 [-ap-spacing 35] [-campus-length 2500] [-store history.json]
//	                 [-wal-dir history.wal] [-snapshot-every 5m] [-wal-sync-every 64]
//	                 [-shards 32] [-evict-every 1m] [-build-workers 0]
//	                 [-rebuild-on-ap-change 30s] [-pprof-addr localhost:6060]
//	                 [-max-body 1048576] [-max-inflight 256]
//	                 [-batch-max 4096]
//	                 [-read-timeout 10s] [-write-timeout 30s] [-idle-timeout 2m]
//	                 [-no-observability] [-stream-buffer 16] [-stream-max-subs 4096]
//	                 [-node-id n1 -peers 'n1=http://h1:8421|h1:9090,n2=http://h2:8421|h2:9090[|role]'
//	                  -role leader|follower] [-replica-root dir]
//
// The Signal Voronoi Diagram can be rebuilt at runtime without a restart:
// POST /v1/admin/rebuild swaps in a diagram built from the deployment's
// current AP activation state, and -rebuild-on-ap-change polls the active-AP
// set on the given period and rebuilds automatically when it changed.
// -pprof-addr serves net/http/pprof on its own listener (keep it loopback or
// firewalled; the public API listener never exposes it).
//
// Travel-time durability comes in two grades:
//
//   - -wal-dir enables crash-safe persistence: every record is appended to
//     a length+CRC-framed write-ahead log (fsync-batched every
//     -wal-sync-every records) and the store is snapshotted atomically
//     every -snapshot-every. A kill -9 loses at most the last fsync batch;
//     restart recovers snapshot + WAL automatically, tolerating a torn
//     tail.
//   - -store is the lighter legacy mode: the snapshot is loaded at startup
//     and saved atomically (temp file + rename) on exit — including error
//     exits — but records between saves are not durable.
//
// Batched ingest: POST /v1/reports/batch accepts NDJSON frames of up to
// -batch-max reports and ingests their lines in order. Both report doors
// share the -max-inflight admission bound; beyond it a request is shed with
// 429 and a Retry-After derived from the measured drain rate. With -wal-dir
// the WAL is fsynced once per frame, before the frame's 200, so every
// acknowledged batched report is durable.
//
// Delta push: GET /v1/stream?route= serves Server-Sent Events — a snapshot
// of the route on connect, then one delta per published epoch. Each
// subscriber gets a -stream-buffer frame buffer; a subscriber too slow to
// drain it is shed (stream closed) and resumes with ?from=<last epoch>.
// -stream-max-subs bounds total concurrent subscribers (beyond it: 503 +
// Retry-After). Note -write-timeout also cuts long-lived streams; clients
// using the resume protocol reconnect transparently, but raise it (or set 0)
// if you want individual connections to live longer.
//
// Clustering: -node-id plus -peers (the same string on every node, each
// entry id=apiURL|replAddr[|role]) runs the server as one node of a
// geo-sharded cluster. Routes are partitioned over the leader-role nodes
// by consistent hashing; mis-routed reports are forwarded to their owner,
// every node replicates the other leaders' travel-time WALs over replAddr
// (fsync before ack), and when a leader goes silent the lowest surviving
// node promotes its replica through the standard crash-recovery path and
// serves the dead node's routes. Cluster mode requires -wal-dir; replicas
// live under -replica-root (default <wal-dir>/replicas). /v1/healthz
// reports per-shard replication lag, /metrics exposes it as
// wilocator_cluster_replication_lag_bytes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"wilocator"
	"wilocator/internal/cluster"
	"wilocator/internal/server"
	"wilocator/internal/svd"
	"wilocator/internal/traveltime"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wilocator-server:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8421", "listen address")
		networkKind  = flag.String("network", "vancouver", "network to build: vancouver or campus")
		seed         = flag.Uint64("seed", 42, "deployment seed")
		apSpacing    = flag.Float64("ap-spacing", 0, "mean AP spacing in metres (0 = default)")
		campusLength = flag.Float64("campus-length", 2500, "campus road length in metres")
		storePath    = flag.String("store", "", "travel-time store snapshot to load at start and save atomically on exit")
		walDir       = flag.String("wal-dir", "", "directory for crash-safe travel-time persistence (WAL + snapshots); supersedes -store")
		snapEvery    = flag.Duration("snapshot-every", 5*time.Minute, "period of automatic store snapshots with -wal-dir (0 disables)")
		walSyncEvery = flag.Int("wal-sync-every", 64, "records per WAL fsync batch with -wal-dir (1 = fsync every record)")
		networkFile  = flag.String("network-file", "", "load the road network from a JSON file instead of a generator")
		shards       = flag.Int("shards", 0, "bus-state shards for concurrent ingestion (0 = default, rounded up to a power of two)")
		evictEvery   = flag.Duration("evict-every", time.Minute, "period of the stale-bus eviction sweep (0 disables)")
		buildWorkers = flag.Int("build-workers", 0, "worker pool size for diagram builds and rebuilds (0 = GOMAXPROCS, 1 = sequential; output is identical either way)")
		rebuildPoll  = flag.Duration("rebuild-on-ap-change", 0, "poll the active-AP set on this period and rebuild the diagram when it changed (0 disables)")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty disables; keep it loopback or firewalled)")
		maxBody      = flag.Int64("max-body", 1<<20, "maximum POST body size in bytes (over-limit requests get 413)")
		maxInflight  = flag.Int("max-inflight", 256, "admission bound on concurrent report POSTs, single and batch (beyond it: 429 + Retry-After)")
		batchMax     = flag.Int("batch-max", 0, "maximum reports per POST /v1/reports/batch frame (0 = default 4096; beyond it: 413)")
		readTimeout  = flag.Duration("read-timeout", 10*time.Second, "HTTP server read timeout")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "HTTP server write timeout")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "HTTP server idle connection timeout")
		noObs        = flag.Bool("no-observability", false, "disable the metrics registry and request tracer (GET /metrics, GET /v1/trace/recent answer 404)")
		streamBuffer = flag.Int("stream-buffer", 0, "per-subscriber SSE frame buffer on GET /v1/stream (0 = default 16; a full buffer sheds the subscriber, who resumes with ?from=)")
		streamMaxSub = flag.Int("stream-max-subs", 0, "admission bound on concurrent SSE subscribers across all routes (0 = default 4096; beyond it: 503 + Retry-After)")
		nodeID       = flag.String("node-id", "", "this node's ID in a geo-sharded cluster (empty = single-node mode)")
		peersSpec    = flag.String("peers", "", "full cluster topology, identical on every node: id=apiURL|replAddr[|role],... (role: leader (default) or follower)")
		roleFlag     = flag.String("role", "", "cross-check of this node's role in -peers: leader or follower (empty skips the check)")
		replicaRoot  = flag.String("replica-root", "", "directory for replicas of peer WALs (default: <wal-dir>/replicas)")
	)
	flag.Parse()

	clusterMode := *nodeID != ""
	if clusterMode && *walDir == "" {
		return errors.New("cluster mode (-node-id) requires -wal-dir: the WAL is what gets replicated")
	}
	var wake *cluster.Wakeup
	if clusterMode {
		wake = cluster.NewWakeup()
	}

	var (
		net *wilocator.Network
		err error
	)
	switch {
	case *networkFile != "":
		f, ferr := os.Open(*networkFile)
		if ferr != nil {
			return ferr
		}
		net, err = wilocator.ReadNetwork(f)
		f.Close()
		*networkKind = *networkFile
	case *networkKind == "vancouver":
		net, err = wilocator.BuildVancouverNetwork()
	case *networkKind == "campus":
		net, err = wilocator.BuildCampusNetwork(*campusLength)
	default:
		return fmt.Errorf("unknown network %q", *networkKind)
	}
	if err != nil {
		return err
	}

	spec := wilocator.DefaultDeploySpec()
	if *apSpacing > 0 {
		spec.Spacing = *apSpacing
	}
	dep, err := wilocator.DeployAPs(net, spec, *seed)
	if err != nil {
		return err
	}
	log.Printf("network %s: %d routes, %d road segments, %d APs",
		*networkKind, len(net.Routes()), net.Graph.NumSegments(), dep.NumAPs())

	start := time.Now()
	persistCfg := traveltime.PersistConfig{SyncEvery: *walSyncEvery}
	if wake != nil {
		persistCfg.OnDurable = wake.Poke // fsyncs wake the WAL shippers
	}
	sys, err := wilocator.New(net, dep, wilocator.Config{
		Diagram:              svd.Config{Workers: *buildWorkers},
		Server: server.Config{
			Shards:               *shards,
			StreamBuffer:         *streamBuffer,
			StreamMaxSubscribers: *streamMaxSub,
		},
		PersistDir:           *walDir,
		Persist:              persistCfg,
		DisableObservability: *noObs,
	})
	if err != nil {
		return err
	}
	log.Printf("signal Voronoi diagram built in %v (%d tiles, %d cells)",
		time.Since(start).Round(time.Millisecond), sys.Diagram().NumTiles(), sys.Diagram().NumCells())

	for _, info := range sys.RouteInfos() {
		log.Printf("route %-12s %3d stops  %5.1f km (%.1f km overlapped)",
			info.Name, info.Stops, info.LengthKm, info.OverlapKm)
	}

	if *walDir != "" {
		if ps, ok := sys.PersistStats(); ok {
			log.Printf("recovered travel-time store from %s: snapshot=%v walReplayed=%d walRejected=%d skippedBytes=%d",
				*walDir, ps.SnapshotLoaded, ps.WALReplayed, ps.WALRejected, ps.WALSkippedBytes)
		}
	} else if *storePath != "" {
		if err := loadStore(sys, *storePath); err != nil {
			return err
		}
	}

	// Cluster mode: join the static topology — serve our ring range, ship
	// our WAL to peers, replicate theirs, and promote on leader loss.
	var node *cluster.Node
	handlerCfg := wilocator.HandlerConfig{
		MaxBodyBytes:       *maxBody,
		MaxInFlightReports: *maxInflight,
		BatchMaxReports:    *batchMax,
	}
	// Group commit amortises WAL fsyncs across whole batches while keeping
	// fsync-before-ack: assign only when a persister exists, so the
	// interface stays nil (not typed-nil) in memory-only mode.
	if p := sys.Persister(); p != nil {
		handlerCfg.GroupCommit = p
	}
	if clusterMode {
		peers, perr := cluster.ParsePeers(*peersSpec)
		if perr != nil {
			return perr
		}
		topo := cluster.Topology{Nodes: peers}
		self, ok := topo.Node(*nodeID)
		if !ok {
			return fmt.Errorf("cluster: -node-id %s not present in -peers", *nodeID)
		}
		if *roleFlag != "" && *roleFlag != string(self.Role) && !(*roleFlag == "leader" && self.Role == "") {
			return fmt.Errorf("cluster: -role %s contradicts -peers role %q for %s", *roleFlag, self.Role, *nodeID)
		}
		root := *replicaRoot
		if root == "" {
			root = filepath.Join(*walDir, "replicas")
		}
		node, err = cluster.NewNode(cluster.Config{
			Self:        *nodeID,
			Topology:    topo,
			ReplicaRoot: root,
			Service:     sys.Service(),
			Persister:   sys.Persister(),
			Wake:        wake,
			NewStore:    sys.NewTravelTimeStore,
			NewService:  sys.NewShardService,
			Persist:     traveltime.PersistConfig{SyncEvery: *walSyncEvery},
			Metrics:     sys.Metrics(),
			Logf:        log.Printf,
		})
		if err != nil {
			return err
		}
		if err := node.Start(context.Background()); err != nil {
			return err
		}
		defer node.Close()
		sys.Service().SetClusterStatus(node.Status)
		handlerCfg.Router = node
		log.Printf("cluster node %s (%s): replication on %s, %d peers",
			*nodeID, self.Role, node.ReplListenAddr(), len(peers)-1)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: sys.HandlerWith(handlerCfg),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// Sweep finished and stale buses periodically so a long-running server's
	// tracking state stays bounded by the live fleet, not its history.
	if *evictEvery > 0 {
		ticker := time.NewTicker(*evictEvery)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				if n := sys.EvictStale(); n > 0 {
					log.Printf("evicted %d stale buses", n)
				}
			}
		}()
	}

	// Watch the deployment for AP dynamics: when the active-AP fingerprint
	// changes (APs deactivated or reactivated through the library), rebuild
	// the diagram and hot-swap it under the live traffic.
	if *rebuildPoll > 0 {
		apTicker := time.NewTicker(*rebuildPoll)
		defer apTicker.Stop()
		go func() {
			last := activeAPFingerprint(dep)
			for range apTicker.C {
				fp := activeAPFingerprint(dep)
				if fp == last {
					continue
				}
				resp, err := sys.Rebuild(context.Background())
				if err != nil {
					if !errors.Is(err, server.ErrRebuildInProgress) {
						log.Printf("rebuild on AP change: %v", err)
					}
					continue // fingerprint unchanged: retry next tick
				}
				last = fp
				log.Printf("AP set changed; rebuilt diagram in %.0f ms (generation %d, %d tiles, %d cells)",
					resp.DurationMS, resp.Generation, resp.Tiles, resp.Cells)
			}
		}()
	}

	// pprof gets its own listener so profiling is never reachable through
	// the public API address.
	if *pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("serving pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pprofMux); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	// Roll periodic snapshots so WAL replay at the next start stays short.
	if *walDir != "" && *snapEvery > 0 {
		snapTicker := time.NewTicker(*snapEvery)
		defer snapTicker.Stop()
		go func() {
			for range snapTicker.C {
				if err := sys.SnapshotTravelTimes(); err != nil {
					log.Printf("snapshot: %v", err)
				}
			}
		}()
	}

	// Serve until SIGINT/SIGTERM or a server error. The store is flushed on
	// BOTH exit paths — a listener that dies with an error must not take
	// the travel-time history down with it.
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("serving WiLocator API on %s", *addr)
	if !*noObs {
		log.Printf("observability: Prometheus metrics on GET /metrics, recent traces on GET /v1/trace/recent")
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	var serveErr error
	select {
	case serveErr = <-errCh:
		log.Printf("server stopped: %v", serveErr)
	case sig := <-sigCh:
		log.Printf("received %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		cancel()
	}

	// Stop the snapshot pump and close every SSE subscriber before flushing:
	// clients see EOF and reconnect elsewhere with ?from=<last epoch>.
	if err := sys.Service().Close(); err != nil {
		log.Printf("close read path: %v", err)
	}

	if err := flushStore(sys, *walDir, *storePath); err != nil {
		if serveErr != nil {
			log.Printf("flush store: %v", err)
			return serveErr
		}
		return err
	}

	st := sys.Stats()
	log.Printf("ingest stats: accepted=%d rejected=%d invalid=%d late-dropped=%d flushes=%d located=%d registered=%d evicted=%d",
		st.Accepted, st.Rejected, st.Invalid, st.LateDropped, st.Flushes, st.Located, st.Registered, st.Evicted)
	return serveErr
}

// flushStore makes the travel-time history durable on exit: a final
// snapshot + WAL close in -wal-dir mode, an atomic snapshot file in -store
// mode.
func flushStore(sys *wilocator.System, walDir, storePath string) error {
	switch {
	case walDir != "":
		if err := sys.SnapshotTravelTimes(); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		if err := sys.ClosePersistence(); err != nil {
			return fmt.Errorf("close WAL: %w", err)
		}
		log.Printf("travel-time store snapshotted in %s", walDir)
	case storePath != "":
		if err := sys.SaveTravelTimesFile(storePath); err != nil {
			return fmt.Errorf("save store: %w", err)
		}
		log.Printf("saved travel-time store to %s", storePath)
	}
	return nil
}

// activeAPFingerprint hashes the sorted active-BSSID set. Two deployments
// fingerprint equal iff the same APs are active, so the rebuild watcher
// triggers exactly on AP dynamics (and never on a mere re-poll).
func activeAPFingerprint(dep *wilocator.Deployment) uint64 {
	aps := dep.ActiveAPs()
	ids := make([]string, len(aps))
	for i, ap := range aps {
		ids[i] = string(ap.BSSID)
	}
	sort.Strings(ids)
	h := fnv.New64a()
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// loadStore restores a previously saved snapshot; a missing file is fine
// (first run).
func loadStore(sys *wilocator.System, path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		log.Printf("store %s does not exist yet; starting empty", path)
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sys.LoadTravelTimes(f); err != nil {
		return fmt.Errorf("load store %s: %w", path, err)
	}
	log.Printf("loaded travel-time store from %s", path)
	return nil
}
