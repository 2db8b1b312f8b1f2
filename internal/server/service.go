// Package server implements the WiLocator back-end (Section V, Fig. 4). All
// computation is shifted here: the server fuses the scan reports of the
// phones riding each bus, positions the bus on the Signal Voronoi Diagram,
// accumulates per-segment travel times, predicts arrival times and generates
// the real-time traffic map. Phones and rider apps talk to it over the JSON
// HTTP API of package api.
//
// # Concurrency model
//
// The deployment is crowd-sensed: many phones on many buses report
// concurrently. The service is built so buses on different shards never
// contend:
//
//   - svd.Diagram and locate.Positioner are immutable once built; the
//     service holds the current pair behind an atomic pointer (an engine
//     generation) so reads stay lock-free while Rebuild hot-swaps a fresh
//     diagram after AP dynamics. roadnet.Network, geo.Projection and the
//     predict/trafficmap engines are immutable after NewService.
//   - Per-bus state (fusion bucket, tracker, trajectory) lives in a sharded
//     map (power-of-two shards keyed by hash(busID)); each bus additionally
//     carries its own mutex, so the shard lock covers only the map lookup.
//   - The only mutable cross-bus structures are traveltime.Store (its own
//     sync.RWMutex) and the ingest counters (atomics).
//
// Lock ordering: shard.mu → busState.mu → store.mu; no path acquires them
// in any other order.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wilocator/internal/geo"

	"wilocator/internal/api"
	"wilocator/internal/locate"
	"wilocator/internal/obs"
	"wilocator/internal/predict"
	"wilocator/internal/roadnet"
	"wilocator/internal/sensing"
	"wilocator/internal/svd"
	"wilocator/internal/trafficmap"
	"wilocator/internal/traveltime"
	"wilocator/internal/wifi"
)

// DefaultShards is the default number of bus-map shards.
const DefaultShards = 32

// Config tunes the service. The zero value selects defaults.
type Config struct {
	// FusionWindow groups reports of one bus into scan cycles. Default
	// 10 s (the paper's scan period).
	FusionWindow time.Duration
	// StaleAfter evicts buses that stop reporting. Default 5 min.
	StaleAfter time.Duration
	// Shards is the number of bus-map shards, rounded up to a power of
	// two. Default DefaultShards.
	Shards int
	// Tracker configures per-bus trackers.
	Tracker locate.TrackerConfig
	// Predict configures the arrival predictor.
	Predict predict.Config
	// Traffic configures the traffic-map generator.
	Traffic trafficmap.Config
	// Now injects the clock; defaults to time.Now. Queries use it to judge
	// staleness.
	Now func() time.Time
	// Origin georeferences the planar frame for trajectory responses
	// (Definition 6 stores <lat, long, t>). Zero selects geo.DefaultOrigin.
	Origin geo.LatLng
	// Sink receives every travel-time record the trackers emit. Default
	// store.Add. Wire a traveltime.Persister's Record here to write-ahead
	// log each record before it becomes queryable state.
	Sink func(traveltime.Record) error
	// PersistStats, when set, surfaces WAL/snapshot/recovery counters in
	// /v1/healthz (typically a traveltime.Persister's Stats).
	PersistStats func() traveltime.PersistStats
	// Metrics, when set, receives the full instrument inventory (ingest,
	// locate, WAL, rebuild, predict, traffic map, HTTP) at NewService; the
	// handler then serves it on GET /metrics. Each registry can hold one
	// service's instruments — reuse across services panics on duplicate
	// registration.
	Metrics *obs.Registry
	// Tracer, when set, receives per-request pipeline events (span IDs are
	// threaded ingest → locate → predict via context); the handler serves
	// the ring on GET /v1/trace/recent. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// StreamBuffer is the per-subscriber SSE frame buffer: how many
	// broadcast frames a slow client may fall behind before it is shed
	// (dropped with its channel closed; it resumes with ?from=). Default 16.
	StreamBuffer int
	// StreamMaxSubscribers caps concurrent SSE subscribers across all
	// routes; beyond it new subscriptions are refused with 503 so broadcast
	// memory stays bounded. Default 4096.
	StreamMaxSubscribers int
}

func (c Config) withDefaults() Config {
	if c.FusionWindow <= 0 {
		c.FusionWindow = sensing.DefaultScanPeriod
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 5 * time.Minute
	}
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Origin == (geo.LatLng{}) {
		c.Origin = geo.DefaultOrigin
	}
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = 16
	}
	if c.StreamMaxSubscribers <= 0 {
		c.StreamMaxSubscribers = 4096
	}
	return c
}

// engine bundles one generation of the positioning state: a diagram, the
// positioner over it, and the generation number. The whole bundle swaps
// atomically on rebuild, so no reader ever pairs an old diagram with a new
// positioner.
type engine struct {
	dia *svd.Diagram
	pos *locate.Positioner
	gen uint64
	// retired holds the live lookup-counter sets of every previous
	// generation's positioner (the sets are tiny; the positioners and
	// diagrams themselves are released). Exported lookup counters sum
	// retired + pos, so they stay monotone across hot-swaps and in-flight
	// lookups finishing on a retired generation are still counted.
	retired []*locate.LookupStats
}

// busState is the per-bus ingestion and tracking state. mu guards every
// field; the shard map only hands out the pointer.
type busState struct {
	mu sync.Mutex

	routeID string
	tracker *locate.Tracker // nil until the bus is registered
	gen     uint64          // engine generation the tracker is bound to

	bucketTime time.Time
	bucket     []wifi.Scan
	// arena is the private backing store for the bucketed scans' readings.
	// Ingest copies each accepted report's readings here because the
	// report's own Readings slice may be a pooled decode buffer that the
	// HTTP handler reuses the moment ingest returns. The arena is reset
	// (not freed) at every flush, so the steady state allocates nothing.
	arena []wifi.Reading

	lastCross  *locate.Crossing
	lastUpdate time.Time
	done       bool
}

// ingestStats holds the cumulative report-outcome counters (atomics — the
// hot path never takes a lock for accounting).
type ingestStats struct {
	accepted    atomic.Uint64
	rejected    atomic.Uint64
	lateDropped atomic.Uint64
	flushes     atomic.Uint64
	located     atomic.Uint64
	registered  atomic.Uint64
	evicted     atomic.Uint64
	invalid     atomic.Uint64
}

// httpStats holds the transport-hardening counters (load shedding, body
// limits, recovered panics). They live on the Service so Stats-style
// observability has one home, but only the HTTP handler increments them.
// The admission counters obey shed + served <= offered at every instant:
// the handler increments offered before deciding, and shed/served exactly
// once afterwards. At quiescence shed + served == offered.
type httpStats struct {
	offered  atomic.Uint64
	served   atomic.Uint64
	shed     atomic.Uint64
	tooLarge atomic.Uint64
	panics   atomic.Uint64
	// Batch-endpoint admission counters, same discipline as the single
	// ones: batchShed + batchServed <= batchOffered at every instant.
	batchOffered atomic.Uint64
	batchServed  atomic.Uint64
	batchShed    atomic.Uint64
	batchReports atomic.Uint64
	// Report lines of admitted requests, single and batch: admitted once
	// decoded, dispatched once ingested or routed. At quiescence they are
	// equal.
	linesAdmitted   atomic.Uint64
	linesDispatched atomic.Uint64
}

// pendingLines is the number of report lines admitted but not yet
// dispatched. dispatched is loaded first: every line it counts was counted
// in admitted before, so the difference never reads negative.
func (h *httpStats) pendingLines() int64 {
	d := h.linesDispatched.Load()
	return int64(h.linesAdmitted.Load() - d)
}

// rebuildState tracks diagram rebuilds: the single-flight lock and the
// observability counters exported through /v1/healthz.
type rebuildState struct {
	mu       sync.Mutex  // held for the duration of one rebuild
	active   atomic.Bool // mirrors mu for lock-free health reads
	rebuilds atomic.Uint64
	failures atomic.Uint64
	lastNano atomic.Int64 // duration of the last successful rebuild
}

// Service is the WiLocator back-end core, independent of the HTTP transport.
// It is safe for concurrent use; see the package comment for the model.
type Service struct {
	cfg   Config
	net   *roadnet.Network
	eng   atomic.Pointer[engine]
	store *traveltime.Store
	pred  *predict.Engine
	tmap  *trafficmap.Generator

	proj *geo.Projection
	sink func(traveltime.Record) error

	buses   *busTable
	stats   ingestStats
	http    httpStats
	rebuild rebuildState

	// Read side: the epoch-snapshot publisher (snapshot.go) and the SSE
	// delta broadcaster (broadcast.go).
	snap  snapState
	read  readStats
	bcast *broadcaster

	mx     *serviceMetrics // nil: metrics disabled
	tracer *obs.Tracer     // nil: tracing disabled (obs.Tracer is nil-safe)

	// clusterStatus, when set (SetClusterStatus), contributes the node's
	// cluster view to /v1/healthz.
	clusterStatus atomic.Pointer[func() *api.ClusterStatus]
}

// NewService wires the back-end together over a prebuilt diagram and
// travel-time store (the store may carry offline-training history).
func NewService(dia *svd.Diagram, store *traveltime.Store, cfg Config) (*Service, error) {
	if dia == nil || store == nil {
		return nil, errors.New("server: nil diagram or store")
	}
	cfg = cfg.withDefaults()
	net := dia.Network()
	pos, err := locate.NewPositioner(dia, dia.Order())
	if err != nil {
		return nil, fmt.Errorf("server: positioner: %w", err)
	}
	pred, err := predict.NewWiLocator(net, store, cfg.Predict)
	if err != nil {
		return nil, fmt.Errorf("server: predictor: %w", err)
	}
	tmap, err := trafficmap.NewGenerator(net, store, cfg.Traffic)
	if err != nil {
		return nil, fmt.Errorf("server: traffic map: %w", err)
	}
	sink := cfg.Sink
	if sink == nil {
		sink = store.Add
	}
	s := &Service{
		cfg:   cfg,
		net:   net,
		store: store,
		pred:  pred,
		tmap:  tmap,
		proj:  geo.NewProjection(cfg.Origin),
		sink:  sink,
		buses: newBusTable(cfg.Shards),
	}
	s.tracer = cfg.Tracer
	s.eng.Store(&engine{dia: dia, pos: pos, gen: 1})
	s.bcast = newBroadcaster(s, cfg.StreamBuffer, cfg.StreamMaxSubscribers)
	s.snap.memo = newPublishMemo(net)
	// Publish the initial (empty) read snapshot synchronously so the read
	// path never observes a nil pointer.
	s.snap.cur.Store(s.computeSnapshot(s.snap.dirty.Load(), 1, cfg.Now()))
	s.read.publishes.Add(1)
	if cfg.Metrics != nil {
		s.mx = newServiceMetrics(s, cfg.Metrics)
	}
	return s, nil
}

// Close stops the service's background work (the SSE broadcast pump) and
// disconnects every stream subscriber. It is idempotent and safe to call on
// a service that never streamed. Ingest and reads keep working after Close;
// only the delta-push subsystem shuts down.
func (s *Service) Close() error {
	s.bcast.close()
	return nil
}

// InvalidateReadSnapshot marks the read snapshot stale after an
// out-of-band mutation of the travel-time store (offline training import,
// direct store writes) so the next read republishes. Ingest, eviction and
// rebuild invalidate automatically; only callers that mutate the store
// behind the service's back need this.
func (s *Service) InvalidateReadSnapshot() { s.markDirty() }

// Store exposes the travel-time store (e.g. for offline training).
func (s *Service) Store() *traveltime.Store { return s.store }

// Network returns the road network.
func (s *Service) Network() *roadnet.Network { return s.net }

// Diagram returns the current Signal Voronoi Diagram (the latest rebuild
// generation's).
func (s *Service) Diagram() *svd.Diagram { return s.eng.Load().dia }

// Generation returns the current engine generation. It starts at 1 and
// advances by one per successful Rebuild.
func (s *Service) Generation() uint64 { return s.eng.Load().gen }

// ErrRebuildInProgress is returned when Rebuild is called while another
// rebuild is still running; rebuilds are single-flight.
var ErrRebuildInProgress = errors.New("server: diagram rebuild already in progress")

// Rebuild reconstructs the Signal Voronoi Diagram from the deployment's
// *current* AP state (APs may have been deactivated or reactivated since the
// last build) with the same configuration, and atomically swaps the new
// diagram in on success. Ingestion keeps running against the old generation
// throughout the build; live trackers re-bind to the new generation on their
// next report, keeping their trip state. A failed build leaves the old
// generation serving. Rebuilds are single-flight: a concurrent call returns
// ErrRebuildInProgress instead of queueing.
func (s *Service) Rebuild(ctx context.Context) (api.RebuildResponse, error) {
	if !s.rebuild.mu.TryLock() {
		return api.RebuildResponse{}, ErrRebuildInProgress
	}
	defer s.rebuild.mu.Unlock()
	s.rebuild.active.Store(true)
	defer s.rebuild.active.Store(false)

	if err := ctx.Err(); err != nil {
		return api.RebuildResponse{}, err
	}
	cur := s.eng.Load()
	start := time.Now()
	dia, err := svd.Build(cur.dia.Network(), cur.dia.Deployment(), cur.dia.Config())
	if err != nil {
		s.rebuild.failures.Add(1)
		return api.RebuildResponse{}, fmt.Errorf("server: rebuild: %w", err)
	}
	pos, err := locate.NewPositioner(dia, dia.Order())
	if err != nil {
		s.rebuild.failures.Add(1)
		return api.RebuildResponse{}, fmt.Errorf("server: rebuild positioner: %w", err)
	}
	if err := ctx.Err(); err != nil {
		// Cancelled mid-build: discard the result rather than swapping in a
		// diagram nobody asked to keep.
		s.rebuild.failures.Add(1)
		return api.RebuildResponse{}, err
	}
	dur := time.Since(start)
	next := &engine{
		dia: dia, pos: pos, gen: cur.gen + 1,
		retired: append(append([]*locate.LookupStats{}, cur.retired...), cur.pos.Stats()),
	}
	s.eng.Store(next)
	s.rebuild.rebuilds.Add(1)
	s.rebuild.lastNano.Store(int64(dur))
	if s.mx != nil {
		s.mx.rebuildSeconds.Observe(dur.Seconds())
	}
	s.tracer.EventDur(ctx, "rebuild", fmt.Sprintf("generation %d", next.gen), dur)
	return api.RebuildResponse{
		Generation: next.gen,
		DurationMS: float64(dur) / float64(time.Millisecond),
		Tiles:      dia.NumTiles(),
		Cells:      dia.NumCells(),
	}, nil
}

// RebuildStats returns the rebuild observability counters.
func (s *Service) RebuildStats() api.RebuildStats {
	return api.RebuildStats{
		Generation:     s.Generation(),
		Rebuilds:       s.rebuild.rebuilds.Load(),
		Failures:       s.rebuild.failures.Load(),
		InProgress:     s.rebuild.active.Load(),
		LastDurationMS: float64(s.rebuild.lastNano.Load()) / float64(time.Millisecond),
	}
}

// Stats returns the cumulative ingest counters as a consistent snapshot:
// every cross-counter invariant that holds in the steady state (located <=
// flushes, invalid <= rejected) also holds in the returned value, even while
// ingestion is running.
//
// The guarantee costs no locks. Each invariant lhs <= rhs pairs a writer
// that increments rhs before lhs with a reader that loads lhs before rhs:
// whatever the interleaving, the loaded lhs is a value from before the
// loaded rhs, and since rhs had already been incremented when lhs was, the
// inequality carries over to the snapshot.
func (s *Service) Stats() api.IngestStats {
	var out api.IngestStats
	// lhs-before-rhs load order for each invariant pair.
	out.Located = s.stats.located.Load()
	out.Flushes = s.stats.flushes.Load()
	out.Invalid = s.stats.invalid.Load()
	out.Rejected = s.stats.rejected.Load()
	out.LateDropped = s.stats.lateDropped.Load()
	out.Accepted = s.stats.accepted.Load()
	out.Registered = s.stats.registered.Load()
	out.Evicted = s.stats.evicted.Load()
	return out
}

// HTTPStats returns the transport-hardening counters. Like Stats, the
// snapshot is invariant-consistent: shed + served <= offered holds in the
// returned value (shed and served are loaded before offered, and the
// handler increments offered first).
func (s *Service) HTTPStats() api.HTTPStats {
	var out api.HTTPStats
	out.Shed = s.http.shed.Load()
	out.Served = s.http.served.Load()
	out.Offered = s.http.offered.Load()
	out.BatchShed = s.http.batchShed.Load()
	out.BatchServed = s.http.batchServed.Load()
	out.BatchOffered = s.http.batchOffered.Load()
	out.BatchReports = s.http.batchReports.Load()
	out.TooLarge = s.http.tooLarge.Load()
	out.Panics = s.http.panics.Load()
	return out
}

// Health assembles the /v1/healthz body.
func (s *Service) Health() api.HealthResponse {
	h := api.HealthResponse{
		OK:          true,
		ActiveBuses: s.ActiveBuses(),
		Ingest:      s.Stats(),
		HTTP:        s.HTTPStats(),
		Read:        s.ReadStats(),
		Rebuild:     s.RebuildStats(),
	}
	if s.cfg.PersistStats != nil {
		ps := s.cfg.PersistStats()
		h.Persist = &ps
	}
	if fn := s.clusterStatus.Load(); fn != nil {
		h.Cluster = (*fn)()
	}
	return h
}

// SetClusterStatus wires a cluster node's status into /v1/healthz. It is
// called after NewService because the cluster node is built around the
// service (it needs the service for its own shard's ingest); an atomic
// pointer keeps Health lock-free.
func (s *Service) SetClusterStatus(fn func() *api.ClusterStatus) {
	s.clusterStatus.Store(&fn)
}

// staleAt reports whether a bus last heard from at lastUpdate is stale at
// time at. Staleness in the ingest path is judged by report time, not wall
// time, so replays are deterministic.
func (s *Service) staleAt(lastUpdate, at time.Time) bool {
	return !lastUpdate.IsZero() && at.Sub(lastUpdate) > s.cfg.StaleAfter
}

// Ingest processes one phone report. Reports of one bus are buffered per
// fusion window; when a report for a newer window arrives, the previous
// window's scans are fused and turned into a position fix, segment
// crossings and travel-time records. A report whose scan falls in an older,
// already-fused window is not an error: it is dropped with
// api.ReasonLateScan and counted in Stats().LateDropped.
//
// A bus that finished its trip or went stale (no report for StaleAfter of
// report time) re-registers on its next report — on the same or a different
// route — with a fresh tracker. A live bus switching routes is rejected.
//
// The report is not retained: the service copies what it buffers, so the
// caller may reuse rep.Scan.Readings (e.g. a pooled decode buffer) as soon
// as Ingest returns.
func (s *Service) Ingest(rep api.Report) (api.IngestResponse, error) {
	return s.IngestCtx(context.Background(), rep)
}

// IngestCtx is Ingest with a caller context. The HTTP handler starts a trace
// span per request and passes it here, so the ingest, locate and (later)
// predict events of one report share a span ID. When metrics or tracing are
// disabled the timing overhead is skipped entirely.
func (s *Service) IngestCtx(ctx context.Context, rep api.Report) (api.IngestResponse, error) {
	timed := s.mx != nil || s.tracer != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	resp, err := s.ingest(ctx, rep)
	if !timed {
		return resp, err
	}
	dur := time.Since(t0)
	if s.mx != nil {
		s.mx.ingestSeconds.Observe(dur.Seconds())
	}
	switch {
	case err != nil:
		s.tracer.EventDur(ctx, "ingest", "rejected: "+err.Error(), dur)
	case resp.Reason != "":
		s.tracer.EventDur(ctx, "ingest", "dropped: "+resp.Reason, dur)
	default:
		s.tracer.EventDur(ctx, "ingest", "accepted", dur)
	}
	return resp, err
}

// ingest is the uninstrumented report-processing core.
func (s *Service) ingest(ctx context.Context, rep api.Report) (api.IngestResponse, error) {
	if rep.BusID == "" || rep.RouteID == "" {
		s.stats.rejected.Add(1)
		return api.IngestResponse{}, errors.New("server: report missing bus or route id")
	}
	if err := rep.Validate(); err != nil {
		// Absurd payloads (AP counts, RSS values, identifier lengths) are
		// refused before touching any per-bus state, so a poisoned report
		// can never perturb the tracking of an otherwise healthy bus.
		// rejected is incremented before invalid so invalid <= rejected
		// holds at every instant (Stats loads invalid first).
		s.stats.rejected.Add(1)
		s.stats.invalid.Add(1)
		return api.IngestResponse{}, err
	}
	if _, ok := s.net.Route(rep.RouteID); !ok {
		s.stats.rejected.Add(1)
		return api.IngestResponse{}, fmt.Errorf("server: unknown route %q", rep.RouteID)
	}

	bs := s.buses.getOrCreate(rep.BusID)
	bs.mu.Lock()
	defer bs.mu.Unlock()

	eng := s.eng.Load()
	if bs.tracker == nil || bs.done || s.staleAt(bs.lastUpdate, rep.Scan.Time) {
		tracker, err := locate.NewTracker(eng.pos, rep.RouteID, s.cfg.Tracker)
		if err != nil {
			s.stats.rejected.Add(1)
			return api.IngestResponse{}, err
		}
		bs.routeID = rep.RouteID
		bs.tracker = tracker
		bs.gen = eng.gen
		bs.bucketTime = time.Time{}
		bs.bucket = nil
		bs.arena = nil
		bs.lastCross = nil
		bs.lastUpdate = time.Time{}
		bs.done = false
		s.stats.registered.Add(1)
		// Registration alone changes read-visible state (the bus's
		// trajectory resets) even if the report is later rejected.
		s.markDirty()
	} else if bs.gen != eng.gen {
		// The diagram was rebuilt since this tracker's last report. Re-bind
		// the tracker to the new generation: its trip state (last fix,
		// smoothed speed, trajectory) survives; only the lookup structure
		// changes.
		if err := bs.tracker.Retarget(eng.pos); err != nil {
			s.stats.rejected.Add(1)
			return api.IngestResponse{}, err
		}
		bs.gen = eng.gen
	}
	if bs.routeID != rep.RouteID {
		s.stats.rejected.Add(1)
		return api.IngestResponse{}, fmt.Errorf("server: bus %q reported route %q but is tracked on %q",
			rep.BusID, rep.RouteID, bs.routeID)
	}

	bucket := rep.Scan.Time.Truncate(s.cfg.FusionWindow)
	if !bs.bucketTime.IsZero() && bucket.Before(bs.bucketTime) {
		// The scan belongs to a fusion window that has already been (or is
		// about to be) fused; appending it to the current bucket would blend
		// cycles and move the fused time backwards. Drop it, counted.
		s.stats.lateDropped.Add(1)
		return api.IngestResponse{Reason: api.ReasonLateScan}, nil
	}
	resp := api.IngestResponse{Accepted: true}
	if bucket.After(bs.bucketTime) && len(bs.bucket) > 0 {
		if est, ok := s.flushLocked(ctx, bs); ok {
			resp.Located = true
			resp.Arc = est.Arc
		}
		bs.bucket = bs.bucket[:0]
		bs.arena = bs.arena[:0]
	}
	bs.bucketTime = bucket
	// Copy the readings into the bus's arena rather than retaining
	// rep.Scan.Readings: the caller may reuse that slice (the HTTP layer's
	// pooled decode buffers) as soon as ingest returns. The three-index
	// slice pins this scan's view, so growing the arena for a later scan
	// can never alias it through append.
	start := len(bs.arena)
	bs.arena = append(bs.arena, rep.Scan.Readings...)
	bs.bucket = append(bs.bucket, wifi.Scan{
		Time:     rep.Scan.Time,
		Readings: bs.arena[start:len(bs.arena):len(bs.arena)],
	})
	if rep.Scan.Time.After(bs.lastUpdate) {
		bs.lastUpdate = rep.Scan.Time
	}
	s.stats.accepted.Add(1)
	// Bump the read-snapshot dirty counter while bs.mu is still held (the
	// deferred unlock runs after): a concurrent snapshot capture either
	// read the counter before this bump (its snapshot is then recorded as
	// stale) or blocks on bs.mu until this mutation is fully visible.
	s.markDirty()
	return resp, nil
}

// flushLocked fuses the pending bucket into a fix. Caller holds bs.mu.
func (s *Service) flushLocked(ctx context.Context, bs *busState) (locate.Estimate, bool) {
	s.stats.flushes.Add(1)
	fused := sensing.Fuse(bs.bucket)
	est, crossings, err := bs.tracker.Observe(fused)
	// Trace notes are formatted only when a tracer records them.
	if err != nil {
		if s.tracer != nil {
			s.tracer.Event(ctx, "locate", "no fix: "+err.Error())
		}
		return locate.Estimate{}, false
	}
	if s.tracer != nil {
		s.tracer.Event(ctx, "locate", fmt.Sprintf("%s fix at arc %.1f", est.Method, est.Arc))
	}
	route := bs.tracker.Route()
	for i := range crossings {
		c := crossings[i]
		if bs.lastCross != nil {
			segIdx := c.SegIndex - 1
			if segIdx >= 0 && segIdx < route.NumSegments() && bs.lastCross.SegIndex == segIdx {
				segID := route.Segment(segIdx)
				rec := traveltime.Record{
					Seg:     segID,
					RouteID: bs.routeID,
					Enter:   bs.lastCross.At,
					Exit:    c.At,
				}
				// A malformed crossing pair is dropped, not fatal. The sink
				// WAL-persists the record when persistence is enabled.
				_ = s.sink(rec)
			}
		}
		cc := c
		bs.lastCross = &cc
	}
	if est.Arc >= route.Length()-1 {
		bs.done = true
	}
	s.stats.located.Add(1)
	return est, true
}

// EvictStale removes finished and stale buses (judged against the injected
// clock) from memory, returning the number evicted. Their trajectories stop
// being queryable. The server does not evict on its own; callers (e.g.
// cmd/wilocator-server) run it on whatever cadence fits their retention
// needs.
func (s *Service) EvictStale() int {
	now := s.cfg.Now()
	evicted := 0
	for i := range s.buses.shards {
		sh := &s.buses.shards[i]
		sh.mu.Lock()
		for id, bs := range sh.buses {
			bs.mu.Lock()
			gone := bs.tracker == nil || bs.done || s.staleAt(bs.lastUpdate, now)
			bs.mu.Unlock()
			if gone {
				delete(sh.buses, id)
				evicted++
			}
		}
		sh.mu.Unlock()
	}
	s.stats.evicted.Add(uint64(evicted))
	if evicted > 0 {
		s.markDirty()
	}
	return evicted
}

// Vehicles returns the live buses, optionally filtered to one route, in
// bus-ID order. Served from the current epoch snapshot: a pointer load, no
// read-side locks. An unknown route is not an error — it simply has no live
// buses.
func (s *Service) Vehicles(routeID string) []api.VehicleStatus {
	vs := s.currentSnapshot().vehiclesOf(routeID)
	if vs == nil {
		return nil
	}
	// Copy so a caller mutating the result cannot corrupt the shared
	// snapshot for every other reader.
	out := make([]api.VehicleStatus, len(vs))
	copy(out, vs)
	return out
}

// Arrivals predicts when each live bus of routeID reaches stop stopIdx.
// Buses already past the stop are omitted.
func (s *Service) Arrivals(routeID string, stopIdx int) ([]api.ArrivalEstimate, error) {
	return s.ArrivalsCtx(context.Background(), routeID, stopIdx)
}

// ArrivalsCtx is Arrivals with a caller context for prediction latency
// metrics and trace events (stage "predict").
func (s *Service) ArrivalsCtx(ctx context.Context, routeID string, stopIdx int) ([]api.ArrivalEstimate, error) {
	timed := s.mx != nil || s.tracer != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	out, err := s.arrivals(routeID, stopIdx)
	if !timed {
		return out, err
	}
	dur := time.Since(t0)
	if s.mx != nil {
		s.mx.predictSeconds.Observe(dur.Seconds())
	}
	if err != nil {
		s.tracer.EventDur(ctx, "predict", "error: "+err.Error(), dur)
	} else {
		s.tracer.EventDur(ctx, "predict", fmt.Sprintf("%d estimates, route %s stop %d", len(out), routeID, stopIdx), dur)
	}
	return out, err
}

// checkStop validates an arrivals query target, with the same messages the
// per-request path produced. Shared by the service and the cached handler.
func (s *Service) checkStop(routeID string, stopIdx int) (*roadnet.Route, error) {
	route, ok := s.net.Route(routeID)
	if !ok {
		return nil, fmt.Errorf("server: unknown route %q", routeID)
	}
	if stopIdx < 0 || stopIdx >= route.NumStops() {
		return nil, fmt.Errorf("server: stop index %d outside [0, %d)", stopIdx, route.NumStops())
	}
	return route, nil
}

func (s *Service) arrivals(routeID string, stopIdx int) ([]api.ArrivalEstimate, error) {
	if _, err := s.checkStop(routeID, stopIdx); err != nil {
		return nil, err
	}
	cells := s.currentSnapshot().arrivals[routeID]
	if stopIdx >= len(cells) {
		// Unreachable with one network per service (the snapshot covers
		// every stop of every route); kept as a guard.
		return nil, nil
	}
	cell := &cells[stopIdx]
	if cell.err != nil {
		return nil, cell.err
	}
	if cell.ests == nil {
		return nil, nil
	}
	out := make([]api.ArrivalEstimate, len(cell.ests))
	copy(out, cell.ests)
	return out, nil
}

// TrafficMap returns the classified network (or one route) from the current
// epoch snapshot. The classification time is the snapshot's GeneratedAt —
// at most FusionWindow behind the clock.
func (s *Service) TrafficMap(routeID string) (api.TrafficMapResponse, error) {
	if routeID != "" {
		if _, ok := s.net.Route(routeID); !ok {
			// Same message MapForRoute produced on the old path.
			return api.TrafficMapResponse{}, fmt.Errorf("trafficmap: unknown route %q", routeID)
		}
	}
	resp := s.currentSnapshot().tmaps[routeID].resp
	if resp.Segments != nil {
		resp.Segments = append([]trafficmap.SegmentStatus(nil), resp.Segments...)
	}
	return resp, nil
}

// RouteInfos returns the route inventory (Table I).
func (s *Service) RouteInfos() api.RoutesResponse {
	return api.RoutesResponse{Routes: s.net.TableI()}
}

// Stops lists the stops of one route for trip-planner front ends.
func (s *Service) Stops(routeID string) (api.StopsResponse, error) {
	route, ok := s.net.Route(routeID)
	if !ok {
		return api.StopsResponse{}, fmt.Errorf("server: unknown route %q", routeID)
	}
	out := api.StopsResponse{RouteID: routeID}
	for i, stop := range route.Stops() {
		out.Stops = append(out.Stops, api.StopInfo{
			Index: i,
			Name:  stop.Name,
			Arc:   stop.Arc,
			Pos:   route.PointAt(stop.Arc),
		})
	}
	return out, nil
}

// ActiveBuses returns the number of currently tracked (non-stale) buses.
func (s *Service) ActiveBuses() int {
	return len(s.currentSnapshot().vehiclesOf(""))
}

// Trajectory returns a tracked bus's trajectory as Definition 6 tuples
// <lat, long, t>. Finished buses remain queryable until evicted. Served
// from the current epoch snapshot, so pairing it with Anomalies (or any
// other read) of the same epoch observes one consistent instant — the old
// path could see mid-update state across its two lock acquisitions.
func (s *Service) Trajectory(busID string) (api.TrajectoryResponse, error) {
	bt, ok := s.currentSnapshot().trajectories[busID]
	if !ok {
		return api.TrajectoryResponse{}, fmt.Errorf("server: unknown bus %q", busID)
	}
	return s.trajectoryResponse(busID, bt.routeID, bt.fixes), nil
}

// trajectoryResponse projects a bus's planar fixes to the <lat, long, t>
// tuples of Definition 6.
func (s *Service) trajectoryResponse(busID, routeID string, fixes []locate.TrajectoryPoint) api.TrajectoryResponse {
	out := api.TrajectoryResponse{BusID: busID, RouteID: routeID}
	for _, p := range fixes {
		ll := s.proj.ToLatLng(p.Pos)
		out.Fixes = append(out.Fixes, api.TrajectoryFix{Lat: ll.Lat, Lng: ll.Lng, Time: p.Time, Arc: p.Arc})
	}
	return out
}

// anomalyMinPoints is the minimum run length (in scan cycles) for a
// trajectory crawl to count as an anomaly site.
const anomalyMinPoints = 4

// Anomalies scans the trajectories of the live buses (optionally of one
// route) for crawl sites that stops and signalled intersections cannot
// explain — the server-side anomaly detection block of Fig. 4. The δ
// threshold is derived per route from the historical mean speed, as
// Section V-A.4 prescribes.
//
// Served from the current epoch snapshot: the trajectories the detection
// ran over are exactly the ones Trajectory serves at the same epoch. The
// old path captured each bus under its own lock across two acquisitions,
// so a concurrent flush could be visible in one product but not the other.
func (s *Service) Anomalies(routeID string) ([]api.AnomalyReport, error) {
	if routeID != "" {
		if _, ok := s.net.Route(routeID); !ok {
			return nil, fmt.Errorf("server: unknown route %q", routeID)
		}
	}
	all := s.currentSnapshot().anomalies
	// Detection is independent per bus, so filtering the precomputed
	// all-routes list is equivalent to detecting over the filtered bus set;
	// the (route, startArc) sort order survives filtering.
	var out []api.AnomalyReport
	for _, a := range all {
		if routeID != "" && a.RouteID != routeID {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// routeMeanSpeed estimates the route's historical mean ground speed from the
// travel-time store, falling back to half the free-flow speed when no
// history exists yet.
func (s *Service) routeMeanSpeed(route *roadnet.Route) float64 {
	var totalTime float64
	haveAll := true
	for _, sid := range route.Segments() {
		m, n := s.store.SegmentMean(sid)
		if n == 0 {
			haveAll = false
			break
		}
		totalTime += m
	}
	if haveAll && totalTime > 0 {
		return route.Length() / totalTime
	}
	// Free-flow fallback across segments.
	var ffTime float64
	for _, sid := range route.Segments() {
		seg, _ := s.net.Graph.Segment(sid)
		ffTime += seg.Length() / seg.SpeedLimit
	}
	if ffTime == 0 {
		return 5
	}
	return route.Length() / ffTime * 0.5
}
