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
//	                 [-max-body 1048576] [-max-inflight 256] [-batch-max 4096]
//	                 [-read-timeout 10s] [-write-timeout 30s] [-idle-timeout 2m]
//	                 [-no-observability] [-stream-buffer 16] [-stream-max-subs 4096]
//	                 [-node-id n1 -replica-root dir
//	                  -peers 'n1=http://h1:8421|h1:9090,n2=http://h2:8421|h2:9090|follower']
//
// The Signal Voronoi Diagram can be rebuilt at runtime without a restart:
// POST /v1/admin/rebuild swaps in a diagram built from the deployment's
// current AP activation state, and -rebuild-on-ap-change polls the active-AP
// set on the given period and rebuilds automatically when it changed.
// -pprof-addr serves net/http/pprof on its own listener (keep it loopback or
// firewalled; the public API listener never exposes it).
//
// Travel-time durability comes in two grades. -wal-dir is crash-safe:
// every record is appended to a length+CRC-framed write-ahead log
// (fsync-batched every -wal-sync-every records), the store is snapshotted
// atomically every -snapshot-every, and a restart recovers snapshot + WAL,
// tolerating a torn tail, so a kill -9 loses at most the last fsync batch.
// -store is the lighter legacy mode: the snapshot is loaded at startup and
// saved atomically on every exit, error exits included, but records
// between saves are not durable.
//
// Both report doors share the -max-inflight admission bound (beyond it:
// 429 + a Retry-After from the measured drain rate). POST
// /v1/reports/batch takes NDJSON frames of up to -batch-max reports and,
// with -wal-dir, fsyncs each frame's records once, before its 200.
//
// GET /v1/stream?route= serves Server-Sent Events: a snapshot of the
// route, then one delta per published epoch. A subscriber too slow to
// drain its -stream-buffer frames is shed and resumes with ?from=<last
// epoch>; -stream-max-subs bounds subscribers (503 + Retry-After beyond).
// -write-timeout also cuts long-lived streams (the resume protocol
// reconnects transparently; set 0 to let connections live longer).
//
// Clustering: -node-id plus -peers (identical on every node, entries
// id=apiURL|replAddr[|role]) make the server one node of a cluster of
// exactly one leader and zero or more standbys (role follower). The
// leader serves everything and ships its travel-time WAL to the standbys
// over replAddr. A standby builds the diagram, replicates under
// -replica-root (default <wal-dir>/replicas; cluster mode requires
// -wal-dir), and answers both report doors and the reads with 503 +
// Retry-After, so clients list every node's URL. When the leader goes
// silent, the lowest-ID standby opens its replica as a restarted leader
// opens -wal-dir and becomes the one service.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	_ "net/http/pprof" // registers on the default mux, served only on -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"wilocator"
	"wilocator/internal/api"
	"wilocator/internal/cluster"
	"wilocator/internal/obs"
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
		nodeID       = flag.String("node-id", "", "this node's ID in a leader/standby cluster (empty = single-node mode)")
		peersSpec    = flag.String("peers", "", "full cluster topology, identical on every node: id=apiURL|replAddr[|role],... (role: leader (default, exactly one) or follower)")
		replicaRoot  = flag.String("replica-root", "", "directory for a standby's replica of the leader's WAL (default: <wal-dir>/replicas)")
	)
	flag.Parse()

	clusterMode := *nodeID != ""
	if clusterMode && *walDir == "" {
		return errors.New("cluster mode (-node-id) requires -wal-dir: the WAL is what gets replicated")
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

	// A standby builds the diagram too, so a promotion only replays the
	// replica.
	start := time.Now()
	dia, err := wilocator.BuildDiagram(net, dep, svd.Config{Workers: *buildWorkers})
	if err != nil {
		return err
	}
	log.Printf("signal Voronoi diagram built in %v (%d tiles, %d cells)",
		time.Since(start).Round(time.Millisecond), dia.NumTiles(), dia.NumCells())
	for _, info := range net.TableI() {
		log.Printf("route %-12s %3d stops  %5.1f km (%.1f km overlapped)",
			info.Name, info.Stops, info.LengthKm, info.OverlapKm)
	}

	sysCfg := wilocator.Config{
		Server: server.Config{
			Shards:               *shards,
			StreamBuffer:         *streamBuffer,
			StreamMaxSubscribers: *streamMaxSub,
		},
		Persist:              traveltime.PersistConfig{SyncEvery: *walSyncEvery},
		DisableObservability: *noObs,
	}
	if !*noObs {
		// One registry for the process: a standby's cluster instruments go
		// in before it has a System, and the System it promotes serves them.
		sysCfg.Server.Metrics = obs.NewRegistry()
	}
	var topo cluster.Topology
	wake := cluster.NewWakeup()
	if clusterMode {
		if topo.Nodes, err = cluster.ParsePeers(*peersSpec); err != nil {
			return err
		}
		sysCfg.Persist.OnDurable = wake.Poke // fsyncs wake the WAL shippers
	}
	leader, _ := topo.Leader()
	standby := clusterMode && leader.ID != *nodeID

	// sys is the System this process serves: opened at startup, or at
	// promotion on a standby.
	var (
		sys  atomic.Pointer[wilocator.System]
		node *cluster.Node
	)
	loopCtx, stopLoops := context.WithCancel(context.Background())
	defer stopLoops()
	// open opens the System over dir ("" keeps the store in memory), starts
	// the loops that act on it, and returns its handler and persister.
	open := func(dir string) (http.Handler, *traveltime.Persister, error) {
		cfg := sysCfg
		cfg.PersistDir = dir
		s, err := wilocator.Open(dia, cfg)
		if err != nil {
			return nil, nil, err
		}
		hc := wilocator.HandlerConfig{MaxBodyBytes: *maxBody, MaxInFlightReports: *maxInflight, BatchMaxReports: *batchMax}
		if p := s.Persister(); p != nil {
			// Group commit: one fsync per batch, before its 200. Assigned
			// only with a persister, so the interface is never typed-nil.
			hc.GroupCommit = p
			ps := p.Stats()
			log.Printf("recovered travel-time store from %s: snapshot=%v walReplayed=%d walRejected=%d skippedBytes=%d",
				dir, ps.SnapshotLoaded, ps.WALReplayed, ps.WALRejected, ps.WALSkippedBytes)
		} else if *storePath != "" {
			if err := loadStore(s, *storePath); err != nil {
				return nil, nil, err
			}
		}
		if clusterMode {
			s.Service().SetClusterStatus(func() *api.ClusterStatus { return node.Status() })
		}
		startLoops(loopCtx, s, dep, *evictEvery, *snapEvery, *rebuildPoll)
		sys.Store(s)
		return s.HandlerWith(hc), s.Persister(), nil
	}

	var handler http.Handler
	var persister *traveltime.Persister
	if !standby {
		if handler, persister, err = open(*walDir); err != nil {
			return err
		}
	}
	if clusterMode {
		node, err = cluster.NewNode(cluster.Config{
			Self: *nodeID, Topology: topo, Wake: wake,
			ReplicaRoot: cmp.Or(*replicaRoot, filepath.Join(*walDir, "replicas")),
			Handler:     handler, Persister: persister, Promote: open,
			Metrics: sysCfg.Server.Metrics, Logf: log.Printf,
		})
		if err != nil {
			return err
		}
		if err := node.Start(context.Background()); err != nil {
			return err
		}
		handler = node
		log.Printf("cluster node %s (standby %v, leader %s): replication on %s, %d peers",
			*nodeID, standby, leader.ID, node.ReplListenAddr(), len(topo.Nodes)-1)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// pprof is served from its own listener (net/http/pprof registers on
	// the default mux, which the API never serves).
	if *pprofAddr != "" {
		go func() {
			log.Printf("serving pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
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

	// Stop replicating first, so no promotion races the flush below.
	if node != nil {
		if err := node.Close(); err != nil {
			log.Printf("close cluster node: %v", err)
		}
	}
	stopLoops()
	final := sys.Load()
	if final == nil {
		log.Printf("standby %s exits unpromoted", *nodeID)
		return serveErr
	}

	// Stop the snapshot pump and close every SSE subscriber before flushing:
	// clients see EOF and reconnect elsewhere with ?from=<last epoch>.
	if err := final.Service().Close(); err != nil {
		log.Printf("close read path: %v", err)
	}
	if err := flushStore(final, *storePath); err != nil {
		if serveErr != nil {
			log.Printf("flush store: %v", err)
			return serveErr
		}
		return err
	}

	st := final.Stats()
	log.Printf("ingest stats: accepted=%d rejected=%d invalid=%d late-dropped=%d flushes=%d located=%d registered=%d evicted=%d",
		st.Accepted, st.Rejected, st.Invalid, st.LateDropped, st.Flushes, st.Located, st.Registered, st.Evicted)
	return serveErr
}

// startLoops runs the periodic work on a System until ctx ends: the
// stale-bus eviction sweep, store snapshots and the AP-change rebuild
// watcher. It runs once per System, when the System opens.
func startLoops(ctx context.Context, sys *wilocator.System, dep *wilocator.Deployment, evictEvery, snapEvery, rebuildPoll time.Duration) {
	every := func(d time.Duration, tick func()) {
		if d <= 0 {
			return
		}
		go func() {
			t := time.NewTicker(d)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					tick()
				}
			}
		}()
	}
	// Eviction bounds the tracking state by the live fleet, not its history.
	every(evictEvery, func() {
		if n := sys.EvictStale(); n > 0 {
			log.Printf("evicted %d stale buses", n)
		}
	})
	// Periodic snapshots keep WAL replay at the next start short.
	if _, ok := sys.PersistStats(); ok {
		every(snapEvery, func() {
			if err := sys.SnapshotTravelTimes(); err != nil {
				log.Printf("snapshot: %v", err)
			}
		})
	}
	// When the active-AP set changes (APs switched through the library),
	// rebuild the diagram under live traffic; a failure retries next tick.
	last := activeAPFingerprint(dep)
	every(rebuildPoll, func() {
		if fp := activeAPFingerprint(dep); fp != last {
			resp, err := sys.Rebuild(ctx)
			if err != nil {
				if !errors.Is(err, server.ErrRebuildInProgress) {
					log.Printf("rebuild on AP change: %v", err)
				}
				return
			}
			last = fp
			log.Printf("AP set changed; rebuilt diagram in %.0f ms (generation %d, %d tiles, %d cells)",
				resp.DurationMS, resp.Generation, resp.Tiles, resp.Cells)
		}
	})
}

// flushStore makes the travel-time history durable on exit: a final
// snapshot + WAL close with persistence, an atomic snapshot file in -store
// mode.
func flushStore(sys *wilocator.System, storePath string) error {
	if _, persisted := sys.PersistStats(); persisted {
		if err := sys.SnapshotTravelTimes(); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		if err := sys.ClosePersistence(); err != nil {
			return fmt.Errorf("close WAL: %w", err)
		}
		log.Printf("travel-time store snapshotted")
	} else if storePath != "" {
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
	var ids []string
	for _, ap := range dep.ActiveAPs() {
		ids = append(ids, string(ap.BSSID))
	}
	sort.Strings(ids)
	h := fnv.New64a()
	h.Write([]byte(strings.Join(ids, "\x00")))
	return h.Sum64()
}

// loadStore restores a previously saved snapshot; a missing file is fine
// (first run).
func loadStore(sys *wilocator.System, path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		log.Printf("store %s does not exist yet; starting empty", path)
		return nil
	} else if err != nil {
		return err
	}
	defer f.Close()
	if err := sys.LoadTravelTimes(f); err != nil {
		return fmt.Errorf("load store %s: %w", path, err)
	}
	log.Printf("loaded travel-time store from %s", path)
	return nil
}
