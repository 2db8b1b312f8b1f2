// Package api defines the JSON wire protocol between WiLocator phones /
// rider apps and the back-end server (the component diagram of Fig. 4:
// smartphones report scans up, the user interface queries vehicle positions,
// arrival predictions and the traffic map).
package api

import (
	"fmt"
	"time"

	"wilocator/internal/geo"
	"wilocator/internal/roadnet"
	"wilocator/internal/trafficmap"
	"wilocator/internal/traveltime"
	"wilocator/internal/wifi"
)

// Paths of the HTTP API.
const (
	PathReports = "/v1/reports"
	// PathReportsBatch ingests many reports in one POST: an NDJSON body,
	// one Report object per line, answered with a BatchResponse carrying
	// per-item verdicts. The batch path exists so a metro-scale fleet does
	// not pay one HTTP round trip and one JSON decoder per scan report.
	PathReportsBatch = "/v1/reports/batch"
	PathVehicles     = "/v1/vehicles"
	PathArrivals     = "/v1/arrivals"
	PathTrafficMap   = "/v1/trafficmap"
	PathRoutes       = "/v1/routes"
	PathStops        = "/v1/stops"
	PathAnomalies    = "/v1/anomalies"
	PathTrajectories = "/v1/trajectories"
	PathHealth       = "/v1/healthz"
	// PathAdminRebuild triggers a Signal Voronoi Diagram rebuild from the
	// current AP deployment state (operator endpoint, POST).
	PathAdminRebuild = "/v1/admin/rebuild"
	// PathMetrics serves the metrics registry in the Prometheus text
	// exposition format (GET; outside /v1 by scrape convention).
	PathMetrics = "/metrics"
	// PathTraceRecent serves the most recent trace events as JSON (GET,
	// debug endpoint; ?n= bounds the count).
	PathTraceRecent = "/v1/trace/recent"
	// PathStream is the rider-facing delta push channel: a Server-Sent
	// Events stream of per-route vehicle updates (GET, ?route= required,
	// ?from=<epoch> resumes after a disconnect). One snapshot diff on the
	// server fans out to every subscriber of the route, so N watchers cost
	// one diff computation, not N recomputes.
	PathStream = "/v1/stream"
)

// SSE event names used on PathStream. A stream opens with zero or more
// catch-up events (one EventSnapshot, or the missed EventDelta frames when
// the ?from= epoch is recent enough to replay), then carries one EventDelta
// per published snapshot epoch. Each frame's SSE id field is its epoch.
const (
	EventSnapshot = "snapshot"
	EventDelta    = "delta"
)

// Report is one phone's upload: the WiFi information scanned on a bus.
type Report struct {
	BusID   string    `json:"busId"`
	RouteID string    `json:"routeId"`
	PhoneID string    `json:"phoneId"`
	Scan    wifi.Scan `json:"scan"`
}

// Payload sanity bounds enforced by Report.Validate. They are deliberately
// generous — an order of magnitude beyond anything a real phone produces —
// so they only reject reports that are absurd (malicious, fuzzed, or
// corrupted in flight), never unusual-but-real ones.
const (
	// MaxScanReadings caps the APs one scan may report. Dense urban scans
	// see tens of APs; hundreds is already implausible.
	MaxScanReadings = 512
	// MinValidRSSI / MaxValidRSSI bound a plausible received signal
	// strength in dBm. Commodity radios bottom out near -100 dBm and
	// nothing is received above ~0 dBm even against the antenna. RSS is an
	// integer on the wire, so NaN and ±Inf cannot even be encoded; the
	// range check catches every remaining absurd value.
	MinValidRSSI = -120
	MaxValidRSSI = 30
	// MaxIDLength caps bus/route/phone/BSSID identifier lengths, so a
	// hostile client cannot grow server-side maps with megabyte keys.
	MaxIDLength = 128
)

// Validate checks a report's payload shape against the bounds above. It
// deliberately does not check semantic fields the server owns (known
// routes, fusion-window ordering) — only whether the payload could have
// come from a sane phone at all. The server counts a failure as a
// rejected-invalid report and answers 400.
func (r Report) Validate() error {
	if len(r.BusID) > MaxIDLength || len(r.RouteID) > MaxIDLength || len(r.PhoneID) > MaxIDLength {
		return fmt.Errorf("api: identifier longer than %d bytes", MaxIDLength)
	}
	if n := len(r.Scan.Readings); n > MaxScanReadings {
		return fmt.Errorf("api: scan reports %d APs, cap is %d", n, MaxScanReadings)
	}
	for _, rd := range r.Scan.Readings {
		if len(rd.BSSID) > MaxIDLength {
			return fmt.Errorf("api: BSSID longer than %d bytes", MaxIDLength)
		}
		if rd.RSSI < MinValidRSSI || rd.RSSI > MaxValidRSSI {
			return fmt.Errorf("api: RSS %d dBm outside plausible range [%d, %d]", rd.RSSI, MinValidRSSI, MaxValidRSSI)
		}
	}
	return nil
}

// IngestResponse acknowledges a report. If the report completed a fusion
// cycle, the fresh estimate is included.
type IngestResponse struct {
	Accepted bool `json:"accepted"`
	// Reason explains why a report was not accepted without being an error
	// (e.g. ReasonLateScan); empty when Accepted.
	Reason string `json:"reason,omitempty"`
	// Located is true when this report triggered a new position fix.
	Located bool `json:"located"`
	// Arc is the fused position estimate (metres along the route) when
	// Located.
	Arc float64 `json:"arc,omitempty"`
}

// BatchResponse acknowledges a POST /v1/reports/batch. The batch endpoint
// is partial-accept: a 200 means every attempted line got an individual
// verdict, not that every line was accepted. Items carries the verdicts of
// the lines that were NOT plainly accepted (accepted-and-unremarkable lines
// are elided, so a clean batch's response stays O(1) regardless of size).
//
// The server refuses an overloaded batch whole, with a 429 before reading
// it, and answers every admitted batch in full. Received and RetryAfterSec
// still define a partial 429 — lines before Received attempted, the tail
// to be resent after RetryAfterSec — which client.PostReportBatch resumes
// from, so a server that cuts a batch short stays compatible.
type BatchResponse struct {
	// Received counts the leading NDJSON lines the server attempted
	// (blank lines included). Equal to the line count on a 200.
	Received int `json:"received"`
	// Accepted / Located / LateDropped / Rejected total the per-line
	// outcomes, matching the IngestStats meanings.
	Accepted    int `json:"accepted"`
	Located     int `json:"located"`
	LateDropped int `json:"lateDropped"`
	Rejected    int `json:"rejected"`
	// Items are the verdicts of the attempted lines that were not plainly
	// accepted, in line order.
	Items []BatchItem `json:"items,omitempty"`
	// RetryAfterSec mirrors the Retry-After header on a partial 429 (whole
	// seconds). The server sends none today: its 429s carry the error
	// envelope and the Retry-After header only.
	RetryAfterSec int `json:"retryAfterSec,omitempty"`
}

// BatchItem is the verdict of one not-plainly-accepted batch line.
type BatchItem struct {
	// Index is the zero-based line number within the batch body.
	Index int `json:"index"`
	// Reason is set for non-error drops (e.g. ReasonLateScan).
	Reason string `json:"reason,omitempty"`
	// Error is set when the line was refused: malformed JSON, failed
	// validation, or an ingest error. The line is counted in Rejected.
	Error string `json:"error,omitempty"`
}

// ReasonLateScan marks a report whose scan time falls in an older fusion
// window than the bus's current bucket. Appending it would corrupt the
// bucket (the window has already been fused), so the server drops it and
// counts the drop instead.
const ReasonLateScan = "late-scan"

// IngestStats counts report-processing outcomes since server start. All
// counters are cumulative and monotone.
type IngestStats struct {
	// Accepted counts reports buffered into a fusion bucket.
	Accepted uint64 `json:"accepted"`
	// Rejected counts reports refused with an error (bad IDs, unknown
	// route, route mismatch).
	Rejected uint64 `json:"rejected"`
	// LateDropped counts reports dropped because their scan fell in an
	// already-fused (older) fusion window.
	LateDropped uint64 `json:"lateDropped"`
	// Flushes counts completed fusion windows; Located counts the flushes
	// that produced a position fix.
	Flushes uint64 `json:"flushes"`
	Located uint64 `json:"located"`
	// Registered counts bus (re-)registrations: first report of a bus, or
	// a report after the bus finished or went stale.
	Registered uint64 `json:"registered"`
	// Evicted counts buses removed from memory by EvictStale.
	Evicted uint64 `json:"evicted"`
	// Invalid counts reports refused by payload validation (absurd AP
	// counts, out-of-range RSS, oversized identifiers). A subset of
	// Rejected.
	Invalid uint64 `json:"invalid"`
}

// HTTPStats counts transport-level protection events since server start:
// requests the hardened HTTP layer refused or survived rather than letting
// them reach (or crash) the service.
type HTTPStats struct {
	// Offered counts every single-report POST that reached the handler;
	// each one is either admitted (and eventually counted in Served) or
	// Shed, so at quiescence Shed + Served == Offered.
	Offered uint64 `json:"offered"`
	// Served counts single-report POSTs that were admitted and ran to a
	// response (any status — a 400 for a bad payload still counts as
	// served).
	Served uint64 `json:"served"`
	// Shed counts single-report POSTs refused with 429 + Retry-After
	// because the admission bound, shared with batch POSTs, was saturated.
	Shed uint64 `json:"shed"`
	// TooLarge counts request bodies cut off by the size limit (413).
	TooLarge uint64 `json:"tooLarge"`
	// Panics counts handler panics recovered into a 500.
	Panics uint64 `json:"panics"`
	// BatchOffered counts every batch POST that reached the handler; like
	// single reports, each is eventually counted in exactly one of
	// BatchServed (admitted and run to any response) or BatchShed (refused
	// with 429 at the admission bound, body unread), so
	// BatchShed + BatchServed <= BatchOffered at every instant.
	BatchOffered uint64 `json:"batchOffered"`
	BatchServed  uint64 `json:"batchServed"`
	BatchShed    uint64 `json:"batchShed"`
	// BatchReports counts individual report lines attempted via the batch
	// endpoint (each got a verdict; a superset of the batch share of the
	// ingest counters).
	BatchReports uint64 `json:"batchReports"`
}

// ReadStats counts read-path outcomes since server start: epoch-snapshot
// publishes, GETs served from snapshots, conditional-request hits, and the
// SSE broadcast counters. Serves counts 200s and 304s alike; NotModified is
// the 304 subset, so NotModified <= Serves at every instant (the handler
// increments Serves first and the snapshot loads NotModified first).
type ReadStats struct {
	// Epoch is the currently served snapshot epoch (equals Publishes: every
	// publish advances the epoch by one).
	Epoch uint64 `json:"epoch"`
	// Publishes counts snapshot publications (epoch advances).
	Publishes uint64 `json:"publishes"`
	// Serves counts GETs answered from an epoch snapshot (200 or 304).
	Serves uint64 `json:"serves"`
	// NotModified counts the If-None-Match hits answered 304. A subset of
	// Serves.
	NotModified uint64 `json:"notModified"`
	// StreamDeltas counts per-(epoch, route) diff computations — one per
	// broadcast route per epoch regardless of the subscriber count.
	StreamDeltas uint64 `json:"streamDeltas"`
	// StreamFrames counts SSE frames enqueued to subscriber buffers
	// (catch-up and delta frames alike).
	StreamFrames uint64 `json:"streamFrames"`
	// StreamDropped counts subscribers shed for falling behind their
	// bounded buffer.
	StreamDropped uint64 `json:"streamDropped"`
	// StreamResumes counts stream subscriptions that carried a ?from=
	// epoch (reconnects after a drop or disconnect).
	StreamResumes uint64 `json:"streamResumes"`
	// Subscribers is the current SSE subscriber count (a gauge, not a
	// cumulative counter).
	Subscribers int64 `json:"subscribers"`
}

// StreamSnapshot is the full-state catch-up event of one /v1/stream route:
// the subscriber replaces whatever it has with this and applies subsequent
// deltas on top.
type StreamSnapshot struct {
	Epoch       uint64          `json:"epoch"`
	RouteID     string          `json:"routeId"`
	GeneratedAt time.Time       `json:"generatedAt"`
	Vehicles    []VehicleStatus `json:"vehicles"`
	// Strip is the route's traffic-map rendering at this epoch.
	Strip string `json:"strip,omitempty"`
}

// StreamDelta is one epoch's change set for one route. Deltas are
// idempotent upserts: applying a delta whose epoch is <= the state the
// client already holds is harmless, so catch-up replays never need
// client-side dedup beyond the epoch comparison.
type StreamDelta struct {
	Epoch   uint64 `json:"epoch"`
	RouteID string `json:"routeId"`
	// Updated carries the vehicles whose status changed this epoch (full
	// replacement values, keyed by BusID).
	Updated []VehicleStatus `json:"updated,omitempty"`
	// Removed lists the bus IDs that left the route's live set (finished,
	// went stale, or were evicted).
	Removed []string `json:"removed,omitempty"`
	// Strip is the route's traffic-map rendering, present when it changed.
	Strip string `json:"strip,omitempty"`
	// StripChanged marks whether Strip is meaningful (an all-unknown strip
	// is a valid non-empty value, so presence alone cannot signal change).
	StripChanged bool `json:"stripChanged,omitempty"`
}

// RebuildStats reports diagram-rebuild state: the serving generation and the
// cumulative rebuild outcomes. Exposed through /v1/healthz so operators can
// see whether the diagram has caught up with known AP dynamics.
type RebuildStats struct {
	// Generation is the serving engine generation (1 = the initial build).
	Generation uint64 `json:"generation"`
	// Rebuilds and Failures count completed and failed rebuild attempts.
	Rebuilds uint64 `json:"rebuilds"`
	Failures uint64 `json:"failures"`
	// InProgress reports whether a rebuild is running right now.
	InProgress bool `json:"inProgress"`
	// LastDurationMS is the wall-clock duration of the last successful
	// rebuild, milliseconds (0 until the first one).
	LastDurationMS float64 `json:"lastDurationMs"`
}

// RebuildResponse acknowledges a completed /v1/admin/rebuild.
type RebuildResponse struct {
	Generation uint64  `json:"generation"`
	DurationMS float64 `json:"durationMs"`
	// Tiles and Cells describe the freshly built diagram.
	Tiles int `json:"tiles"`
	Cells int `json:"cells"`
}

// HealthResponse is the /v1/healthz body: liveness plus the degradation
// counters — load shedding, recovered panics, diagram-rebuild state, and
// (when persistence is enabled) WAL/snapshot recovery state — so "up but
// degraded" is visible to operators and probes.
type HealthResponse struct {
	OK          bool         `json:"ok"`
	ActiveBuses int          `json:"activeBuses"`
	Ingest      IngestStats  `json:"ingest"`
	HTTP        HTTPStats    `json:"http"`
	Read        ReadStats    `json:"read"`
	Rebuild     RebuildStats `json:"rebuild"`
	// Persist is present when the server runs with a write-ahead log.
	Persist *traveltime.PersistStats `json:"persist,omitempty"`
	// Cluster is present when the server runs as a cluster node: its
	// role, and the replication state of the leader's lineage.
	Cluster *ClusterStatus `json:"cluster,omitempty"`
}

// ClusterStatus reports one node's view of the cluster in /v1/healthz.
type ClusterStatus struct {
	// NodeID is this node's name in the static topology.
	NodeID string `json:"nodeId"`
	// Role is "leader" or "follower" (the node's configured role).
	Role string `json:"role"`
	// Shards holds the one WAL lineage of the cluster, the leader's, as
	// this node sees it: shipped, replicated or promoted.
	Shards []ShardStatus `json:"shards,omitempty"`
}

// ShardStatus is the replication state of the leader's WAL lineage as
// seen from the reporting node.
type ShardStatus struct {
	// Owner is the node serving the lineage; after a failover it is the
	// promoted survivor, not the original leader.
	Owner string `json:"owner"`
	// Origin is the node the lineage originally belonged to.
	Origin string `json:"origin"`
	// Local reports whether this node serves the lineage (it is the owner).
	Local bool `json:"local"`
	// Promoted reports whether the lineage moved here through a failover.
	Promoted bool `json:"promoted"`
	// ReplicationLagBytes is the leader's durable WAL frontier minus the
	// acknowledged follower offset (leader view) or minus the local replica
	// length (follower view). Zero means the replica is caught up.
	ReplicationLagBytes int64 `json:"replicationLagBytes"`
	// WALDurableBytes is the durable frontier of the lineage's WAL.
	WALDurableBytes int64 `json:"walDurableBytes"`
	// Generation is the lineage's persistence generation.
	Generation uint64 `json:"generation"`
}

// VehicleStatus is the live state of one tracked bus.
type VehicleStatus struct {
	BusID   string    `json:"busId"`
	RouteID string    `json:"routeId"`
	Arc     float64   `json:"arc"`
	Pos     geo.Point `json:"pos"`
	// Speed is the smoothed ground speed, m/s.
	Speed float64 `json:"speed"`
	// Updated is the time of the latest fix.
	Updated time.Time `json:"updated"`
}

// ArrivalEstimate is one bus's predicted arrival at a stop.
type ArrivalEstimate struct {
	BusID     string    `json:"busId"`
	RouteID   string    `json:"routeId"`
	StopIndex int       `json:"stopIndex"`
	StopName  string    `json:"stopName"`
	ETA       time.Time `json:"eta"`
}

// TrafficMapResponse carries the classified segments.
type TrafficMapResponse struct {
	GeneratedAt time.Time                  `json:"generatedAt"`
	Segments    []trafficmap.SegmentStatus `json:"segments"`
	// Strip is the one-glyph-per-segment rendering.
	Strip string `json:"strip"`
}

// RoutesResponse carries the route inventory (the data behind Table I).
type RoutesResponse struct {
	Routes []roadnet.RouteInfo `json:"routes"`
}

// StopInfo describes one bus stop of a route, for trip-planner UIs.
type StopInfo struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	// Arc is the stop's position along the route, metres from the start.
	Arc float64   `json:"arc"`
	Pos geo.Point `json:"pos"`
}

// StopsResponse lists one route's stops in travel order.
type StopsResponse struct {
	RouteID string     `json:"routeId"`
	Stops   []StopInfo `json:"stops"`
}

// TrajectoryFix is one point of a bus trajectory in the paper's Definition 6
// form: <lat, long, t>, plus the arc length for road-relative consumers.
type TrajectoryFix struct {
	Lat  float64   `json:"lat"`
	Lng  float64   `json:"lng"`
	Time time.Time `json:"t"`
	Arc  float64   `json:"arc"`
}

// TrajectoryResponse carries one tracked bus's trajectory.
type TrajectoryResponse struct {
	BusID   string          `json:"busId"`
	RouteID string          `json:"routeId"`
	Fixes   []TrajectoryFix `json:"fixes"`
}

// AnomalyReport is one detected traffic-anomaly site on a live bus's
// trajectory (road construction, accident — Fig. 6 of the paper).
type AnomalyReport struct {
	BusID   string `json:"busId"`
	RouteID string `json:"routeId"`
	// StartArc and EndArc delimit the site along the route, metres.
	StartArc float64   `json:"startArc"`
	EndArc   float64   `json:"endArc"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	// Pos is the site's centre on the road.
	Pos geo.Point `json:"pos"`
}

// Error is the JSON error envelope.
type Error struct {
	Message string `json:"error"`
}
