// Package wilocator is a Go implementation of WiLocator (Liu et al., ICDCS
// 2016): WiFi-sensing based real-time bus tracking and arrival-time
// prediction for urban environments.
//
// The library's primary contribution is the Signal Voronoi Diagram (SVD): a
// partition of the RF signal space around bus routes into Signal Cells (the
// dominance region of the strongest access point) and order-k Signal Tiles
// within which the *rank order* of expected RSS is constant. Because RSS
// ranks are far more stable than raw RSS values, a bus is positioned by
// looking the rank vector of one crowd-sensed WiFi scan up in the diagram —
// no fingerprint calibration, no runtime propagation model, robust to AP
// dynamics.
//
// On top of the SVD the package provides the full WiLocator system: per-bus
// tracking with the route mobility constraint, per-segment travel-time
// learning with the seasonal index, cross-route arrival-time prediction
// (Eq. 5/8/9 of the paper), real-time traffic-map generation with anomaly
// detection, and an HTTP back-end + client for the crowd-sensing loop.
//
// # Quick start
//
//	net, _ := wilocator.BuildCampusNetwork(500)
//	dep, _ := wilocator.DeployAPs(net, wilocator.DefaultDeploySpec(), 42)
//	sys, _ := wilocator.New(net, dep, wilocator.Config{})
//	// feed phone reports ...
//	resp, _ := sys.Ingest(wilocator.Report{BusID: "bus-1", RouteID: "campus", Scan: scan})
//	vehicles := sys.Vehicles("campus")
//
// See the examples/ directory for runnable end-to-end scenarios and
// DESIGN.md / EXPERIMENTS.md for the paper-reproduction methodology.
package wilocator

import (
	"context"
	"errors"
	"io"
	"net/http"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/client"
	"wilocator/internal/geo"
	"wilocator/internal/locate"
	"wilocator/internal/obs"
	"wilocator/internal/roadnet"
	"wilocator/internal/server"
	"wilocator/internal/svd"
	"wilocator/internal/trafficmap"
	"wilocator/internal/traveltime"
	"wilocator/internal/wifi"
	"wilocator/internal/xrand"
)

// Re-exported domain types. These aliases are the public names of the
// library's data model; construct them through the functions below.
type (
	// Point is a planar position in the local ENU frame, metres.
	Point = geo.Point
	// LatLng is a geodetic coordinate in degrees.
	LatLng = geo.LatLng
	// Projection converts between LatLng and the planar frame.
	Projection = geo.Projection

	// Network is a road network plus its bus routes.
	Network = roadnet.Network
	// Route is one bus route (Definition 4 of the paper).
	Route = roadnet.Route
	// RouteInfo is one row of the paper's Table I.
	RouteInfo = roadnet.RouteInfo
	// SegmentID identifies a directed road segment.
	SegmentID = roadnet.SegmentID

	// AP is a geo-tagged WiFi access point.
	AP = wifi.AP
	// BSSID identifies an AP.
	BSSID = wifi.BSSID
	// Deployment is a set of APs with activation state.
	Deployment = wifi.Deployment
	// DeploySpec parameterises synthetic AP deployments.
	DeploySpec = wifi.DeploySpec
	// Scan is one WiFi scan (readings of visible APs).
	Scan = wifi.Scan
	// Reading is one (AP, RSS) observation.
	Reading = wifi.Reading

	// Diagram is a built Signal Voronoi Diagram.
	Diagram = svd.Diagram
	// TileKey identifies an order-k Signal Tile.
	TileKey = svd.TileKey
	// DiagramConfig parameterises SVD construction.
	DiagramConfig = svd.Config

	// Estimate is one position fix on a route.
	Estimate = locate.Estimate
	// TrajectoryPoint is one fix of a bus trajectory (Definition 6).
	TrajectoryPoint = locate.TrajectoryPoint

	// Report is a phone's scan upload.
	Report = api.Report
	// IngestResponse acknowledges a report.
	IngestResponse = api.IngestResponse
	// VehicleStatus is the live state of a tracked bus.
	VehicleStatus = api.VehicleStatus
	// ArrivalEstimate is a predicted stop arrival.
	ArrivalEstimate = api.ArrivalEstimate
	// TrafficMapResponse carries classified road segments.
	TrafficMapResponse = api.TrafficMapResponse
	// StopInfo describes one bus stop of a route.
	StopInfo = api.StopInfo
	// AnomalyReport is a detected traffic-anomaly site on a live bus.
	AnomalyReport = api.AnomalyReport
	// TrajectoryResponse carries a tracked bus's <lat, long, t> trajectory.
	TrajectoryResponse = api.TrajectoryResponse
	// IngestStats counts report-processing outcomes since startup.
	IngestStats = api.IngestStats
	// RebuildResponse acknowledges a completed diagram rebuild.
	RebuildResponse = api.RebuildResponse
	// RebuildStats reports diagram-rebuild state (serving generation,
	// outcome counters).
	RebuildStats = api.RebuildStats

	// SegmentStatus is one segment's traffic-map entry.
	SegmentStatus = trafficmap.SegmentStatus
	// Anomaly is a detected traffic-anomaly site.
	Anomaly = trafficmap.Anomaly

	// Client is the typed HTTP client for a WiLocator server.
	Client = client.Client

	// MetricsRegistry holds the system's instruments and renders them in
	// the Prometheus text exposition format (GET /metrics).
	MetricsRegistry = obs.Registry
	// Tracer records per-request pipeline events in a bounded ring
	// (GET /v1/trace/recent).
	Tracer = obs.Tracer
	// TraceEvent is one recorded pipeline event.
	TraceEvent = obs.Event
)

// BuildVancouverNetwork constructs the synthetic Metro-Vancouver network of
// the paper's Table I: four routes sharing a 13 km corridor.
func BuildVancouverNetwork() (*Network, error) {
	return roadnet.BuildVancouver(roadnet.DefaultVancouverSpec())
}

// BuildCampusNetwork constructs a single one-way road of the given length
// carrying one shuttle route (the paper's Fig. 10 scenario shape).
func BuildCampusNetwork(length float64) (*Network, error) {
	return roadnet.BuildCampus(length)
}

// DefaultDeploySpec returns the dense-urban AP deployment parameters used by
// the evaluation.
func DefaultDeploySpec() DeploySpec { return wifi.DefaultDeploySpec() }

// DeployAPs generates a geo-tagged AP deployment along the network's roads,
// deterministically from seed.
func DeployAPs(net *Network, spec DeploySpec, seed uint64) (*Deployment, error) {
	return wifi.Deploy(net, spec, xrand.New(seed))
}

// NewDeployment wraps a hand-placed AP set (e.g. real geo-tagged hotspots).
func NewDeployment(aps []*AP) (*Deployment, error) { return wifi.NewDeployment(aps) }

// WriteNetwork serialises a road network (nodes, segments, routes, stops) as
// JSON, the schema real city data can be authored in.
func WriteNetwork(w io.Writer, net *Network) error { return roadnet.WriteNetwork(w, net) }

// ReadNetwork loads a network written by WriteNetwork or hand-authored in
// the same schema.
func ReadNetwork(r io.Reader) (*Network, error) { return roadnet.ReadNetwork(r) }

// BuildDiagram constructs the Signal Voronoi Diagram for a network and
// deployment. A zero config selects the paper's defaults (order 2).
func BuildDiagram(net *Network, dep *Deployment, cfg DiagramConfig) (*Diagram, error) {
	return svd.Build(net, dep, cfg)
}

// PersistConfig tunes crash-safe travel-time persistence (WAL fsync
// batching and automatic snapshot cadence).
type PersistConfig = traveltime.PersistConfig

// PersistStats counts WAL/snapshot/recovery events.
type PersistStats = traveltime.PersistStats

// HandlerConfig tunes the HTTP transport hardening (body limits, ingestion
// admission bound, Retry-After hint).
type HandlerConfig = server.HandlerConfig

// Config tunes a System. The zero value selects the paper's defaults.
type Config struct {
	// Diagram parameterises SVD construction.
	Diagram DiagramConfig
	// Server parameterises ingestion, tracking, prediction and the traffic
	// map.
	Server server.Config
	// PersistDir, when non-empty, makes the travel-time store crash-safe:
	// prior state is recovered from the directory's snapshot + write-ahead
	// log at New, and every record is WAL-appended before it becomes
	// queryable. See traveltime.Persister.
	PersistDir string
	// Persist tunes the persister; ignored without PersistDir.
	Persist PersistConfig
	// DisableObservability opts out of the metrics registry and request
	// tracer New wires in by default (GET /metrics, GET /v1/trace/recent).
	// Explicit Server.Metrics / Server.Tracer values win either way.
	DisableObservability bool
}

// DefaultTraceCapacity is the trace-ring size New configures when tracing is
// not set up explicitly.
const DefaultTraceCapacity = 512

// System is the assembled WiLocator back-end: SVD positioning, per-bus
// tracking, travel-time learning, arrival prediction and traffic maps, with
// an HTTP API for phones and rider apps. It is safe for concurrent use.
type System struct {
	store   *traveltime.Store
	svc     *server.Service
	persist *traveltime.Persister // nil without Config.PersistDir
}

// New assembles a system over a road network and AP deployment.
func New(net *Network, dep *Deployment, cfg Config) (*System, error) {
	dia, err := svd.Build(net, dep, cfg.Diagram)
	if err != nil {
		return nil, err
	}
	return Open(dia, cfg)
}

// Open assembles a system over an already built diagram (cfg.Diagram is
// ignored), recovering cfg.PersistDir as New does. A cluster standby
// builds its diagram at startup and opens its System only when it is
// promoted, over the replica directory, so a failover never waits for a
// diagram build.
func Open(dia *Diagram, cfg Config) (*System, error) {
	var err error
	store := traveltime.NewStore(traveltime.PaperPlan())
	if !cfg.DisableObservability {
		if cfg.Server.Metrics == nil {
			cfg.Server.Metrics = obs.NewRegistry()
		}
		if cfg.Server.Tracer == nil {
			cfg.Server.Tracer = obs.NewTracer(DefaultTraceCapacity)
		}
	}
	var persist *traveltime.Persister
	if cfg.PersistDir != "" {
		if cfg.Server.Metrics != nil && cfg.Persist.OnOp == nil {
			// Feed WAL append/fsync/snapshot latencies into the registry. Must
			// be wired before OpenPersister so recovery-time snapshots count.
			cfg.Persist.OnOp = server.WALObserver(cfg.Server.Metrics)
		}
		persist, err = traveltime.OpenPersister(cfg.PersistDir, store, cfg.Persist)
		if err != nil {
			return nil, err
		}
		cfg.Server.Sink = persist.Record
		cfg.Server.PersistStats = persist.Stats
	}
	svc, err := server.NewService(dia, store, cfg.Server)
	if err != nil {
		return nil, err
	}
	return &System{store: store, svc: svc, persist: persist}, nil
}

// Diagram returns the system's current Signal Voronoi Diagram (the latest
// rebuild generation's).
func (s *System) Diagram() *Diagram { return s.svc.Diagram() }

// Rebuild reconstructs the Signal Voronoi Diagram from the deployment's
// current AP state and hot-swaps it in; see server.Service.Rebuild. Call it
// after deactivating or reactivating APs so positioning catches up with the
// dynamics.
func (s *System) Rebuild(ctx context.Context) (RebuildResponse, error) { return s.svc.Rebuild(ctx) }

// Ingest processes one phone report (scan upload).
func (s *System) Ingest(rep Report) (IngestResponse, error) { return s.svc.Ingest(rep) }

// Vehicles lists live buses; routeID may be empty for all routes.
func (s *System) Vehicles(routeID string) []VehicleStatus { return s.svc.Vehicles(routeID) }

// Arrivals predicts when each live bus of routeID reaches stop stopIdx.
func (s *System) Arrivals(routeID string, stopIdx int) ([]ArrivalEstimate, error) {
	return s.svc.Arrivals(routeID, stopIdx)
}

// TrafficMap classifies the network's segments (or one route's) now.
func (s *System) TrafficMap(routeID string) (TrafficMapResponse, error) {
	return s.svc.TrafficMap(routeID)
}

// RouteInfos returns the route inventory (Table I).
func (s *System) RouteInfos() []RouteInfo { return s.svc.RouteInfos().Routes }

// Anomalies lists traffic-anomaly sites detected on the live buses'
// trajectories (Fig. 6 of the paper); routeID may be empty.
func (s *System) Anomalies(routeID string) ([]AnomalyReport, error) {
	return s.svc.Anomalies(routeID)
}

// Trajectory returns a tracked bus's trajectory as <lat, long, t> tuples
// (Definition 6 of the paper).
func (s *System) Trajectory(busID string) (TrajectoryResponse, error) {
	return s.svc.Trajectory(busID)
}

// Stops lists the stops of one route in travel order.
func (s *System) Stops(routeID string) ([]StopInfo, error) {
	resp, err := s.svc.Stops(routeID)
	if err != nil {
		return nil, err
	}
	return resp.Stops, nil
}

// Stats returns the cumulative ingestion counters (accepted, rejected,
// late-dropped, flushes, fixes, registrations, evictions).
func (s *System) Stats() IngestStats { return s.svc.Stats() }

// Metrics returns the system's metrics registry, or nil when observability
// was disabled.
func (s *System) Metrics() *MetricsRegistry { return s.svc.Registry() }

// WriteMetrics renders every registered metric in the Prometheus text
// exposition format — the same bytes GET /metrics serves. It errors when
// observability was disabled.
func (s *System) WriteMetrics(w io.Writer) error {
	reg := s.svc.Registry()
	if reg == nil {
		return errors.New("wilocator: observability disabled (Config.DisableObservability)")
	}
	return reg.WritePrometheus(w)
}

// TraceRecent returns up to max recent pipeline trace events, newest first;
// nil when observability was disabled.
func (s *System) TraceRecent(max int) []TraceEvent { return s.svc.TraceRecent(max) }

// EvictStale removes finished and stale buses from the tracking state,
// returning how many were evicted. Call it periodically on long-running
// servers to bound memory.
func (s *System) EvictStale() int { return s.svc.EvictStale() }

// Handler returns the HTTP handler exposing the system's JSON API,
// hardened with default limits (panic recovery, 1 MiB bodies, a 256-deep
// ingestion admission bound shedding with 429 + Retry-After).
func (s *System) Handler() http.Handler { return server.Handler(s.svc) }

// HandlerWith is Handler with explicit hardening limits.
func (s *System) HandlerWith(hc HandlerConfig) http.Handler { return server.NewHandler(s.svc, hc) }

// Service exposes the underlying serving stack. A cluster node hooks its
// status into the service's health body through it.
func (s *System) Service() *server.Service { return s.svc }

// Persister exposes the travel-time persister (nil without
// Config.PersistDir). A cluster leader ships its WAL lineage from it.
func (s *System) Persister() *traveltime.Persister { return s.persist }

// SnapshotTravelTimes rolls a new persistence generation (atomic snapshot
// + fresh WAL). It errors unless the system was built with
// Config.PersistDir. Long-running servers call it periodically to keep
// recovery time proportional to the records since the last snapshot.
func (s *System) SnapshotTravelTimes() error {
	if s.persist == nil {
		return errors.New("wilocator: persistence not enabled (Config.PersistDir)")
	}
	return s.persist.Snapshot()
}

// ClosePersistence fsyncs and closes the write-ahead log. A no-op without
// Config.PersistDir.
func (s *System) ClosePersistence() error {
	if s.persist == nil {
		return nil
	}
	return s.persist.Close()
}

// PersistStats returns the WAL/snapshot/recovery counters; ok is false
// without Config.PersistDir.
func (s *System) PersistStats() (stats PersistStats, ok bool) {
	if s.persist == nil {
		return PersistStats{}, false
	}
	return s.persist.Stats(), true
}

// SaveTravelTimesFile snapshots the store to path atomically (temp file in
// the same directory, fsync, rename), so a crash mid-save can never tear
// an existing snapshot. This is the -store save path of
// cmd/wilocator-server; prefer Config.PersistDir for crash-safety between
// saves too.
func (s *System) SaveTravelTimesFile(path string) error {
	return traveltime.SaveSnapshotFile(s.store, path)
}

// AddTravelTime injects an observed segment traversal into the historical
// store (offline training / imported AVL history).
func (s *System) AddTravelTime(seg SegmentID, routeID string, enter, exit time.Time) error {
	if err := s.store.Add(traveltime.Record{Seg: seg, RouteID: routeID, Enter: enter, Exit: exit}); err != nil {
		return err
	}
	// The store was mutated behind the service: traffic maps and arrival
	// tables derived from it must republish.
	s.svc.InvalidateReadSnapshot()
	return nil
}

// NewClient creates a typed HTTP client for a WiLocator server at baseURL.
func NewClient(baseURL string) (*Client, error) { return client.New(baseURL, nil) }

// SaveTravelTimes writes the historical travel-time store as a JSON snapshot
// (deterministic output; see LoadTravelTimes).
func (s *System) SaveTravelTimes(w io.Writer) error {
	_, err := s.store.WriteTo(w)
	return err
}

// LoadTravelTimes replaces the historical store with a snapshot previously
// written by SaveTravelTimes, so offline training survives server restarts.
func (s *System) LoadTravelTimes(r io.Reader) error {
	if _, err := s.store.ReadFrom(r); err != nil {
		return err
	}
	// Same as AddTravelTime: an out-of-band store mutation must invalidate
	// the read snapshot.
	s.svc.InvalidateReadSnapshot()
	return nil
}
