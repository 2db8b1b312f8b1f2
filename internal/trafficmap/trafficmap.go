// Package trafficmap generates WiLocator's real-time traffic map and detects
// traffic anomalies (Sections IV and V-A.4).
//
// Because different routes have different regular speeds and different road
// segments have different speed limits, the map classifies segments by the
// *statistics of travel time*, not by vehicle velocity: for each segment the
// current residual (historical mean minus recent travel time, averaged over
// the buses that just passed) is standardised against the historical
// residual distribution, and the z-statistic is thresholded by the rule of
// thumb — z < -1.64 marks "very slow" (95% confidence), z < -1.00 "slow".
//
// The paper's comparison point (Fig. 11) is coverage: the transit agency's
// map leaves segments "unconfirmed", while WiLocator exploits the temporal
// constancy of traffic to mark every segment — absent fresh evidence a
// segment is classified from history instead of left blank. Generators can
// be configured either way so the comparison is reproducible.
package trafficmap

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"wilocator/internal/locate"
	"wilocator/internal/roadnet"
	"wilocator/internal/traveltime"
)

// Condition classifies a road segment's traffic state.
type Condition int

// Conditions. Unknown only appears on maps generated without inference
// (the agency baseline's "unconfirmed" segments).
const (
	Unknown Condition = iota
	Normal
	Slow
	VerySlow
)

// String implements fmt.Stringer.
func (c Condition) String() string {
	switch c {
	case Normal:
		return "normal"
	case Slow:
		return "slow"
	case VerySlow:
		return "very-slow"
	default:
		return "unknown"
	}
}

// Rune returns the single-character map glyph for the condition.
func (c Condition) Rune() rune {
	switch c {
	case Normal:
		return '-'
	case Slow:
		return 's'
	case VerySlow:
		return 'S'
	default:
		return '?'
	}
}

// Default thresholds (rule of thumb, Section V-A.4).
const (
	DefaultVerySlowZ = -1.64
	DefaultSlowZ     = -1.00
)

// Config tunes a Generator. The zero value selects WiLocator defaults.
type Config struct {
	// VerySlowZ and SlowZ are the z thresholds; both must be negative.
	VerySlowZ, SlowZ float64
	// RecentWindow bounds how fresh a traversal must be to count as
	// current evidence. Default 20 min.
	RecentWindow time.Duration
	// MinHistory is the minimum residual sample count before the
	// z-statistic is trusted. Default 8.
	MinHistory int
	// InferUnknown marks evidence-less segments Normal from history
	// (WiLocator behaviour) instead of Unknown (agency behaviour).
	// Use NewGenerator/NewAgencyStyle rather than setting this directly.
	InferUnknown bool
}

func (c Config) withDefaults() Config {
	if c.VerySlowZ >= 0 {
		c.VerySlowZ = DefaultVerySlowZ
	}
	if c.SlowZ >= 0 {
		c.SlowZ = DefaultSlowZ
	}
	if c.RecentWindow <= 0 {
		c.RecentWindow = 20 * time.Minute
	}
	if c.MinHistory <= 0 {
		c.MinHistory = 8
	}
	return c
}

// SegmentStatus is one segment's entry on the traffic map.
type SegmentStatus struct {
	Seg       roadnet.SegmentID `json:"seg"`
	Condition Condition         `json:"condition"`
	// Z is the standardised residual; 0 when inferred or unknown.
	Z float64 `json:"z"`
	// Inferred is true when no fresh traversal existed and the condition
	// was filled in from history.
	Inferred bool `json:"inferred"`
	// Routes lists the routes sharing the segment.
	Routes []string `json:"routes"`
}

// Generator produces traffic maps from the travel-time store.
type Generator struct {
	net   *roadnet.Network
	store *traveltime.Store
	cfg   Config

	// Classification counters (atomics — generators serve concurrent map
	// requests). Indexed by Condition for the by-condition counts.
	classified [4]atomic.Uint64 // Unknown, Normal, Slow, VerySlow
	inferred   atomic.Uint64
}

// ClassifyCounts is a snapshot of a generator's cumulative classification
// counters: how many segment classifications it produced per condition, and
// how many of those were inferred from history rather than fresh evidence.
type ClassifyCounts struct {
	Unknown, Normal, Slow, VerySlow uint64
	Inferred                        uint64
}

// Counts returns the generator's cumulative classification counters.
func (g *Generator) Counts() ClassifyCounts {
	return ClassifyCounts{
		Unknown:  g.classified[Unknown].Load(),
		Normal:   g.classified[Normal].Load(),
		Slow:     g.classified[Slow].Load(),
		VerySlow: g.classified[VerySlow].Load(),
		Inferred: g.inferred.Load(),
	}
}

// count records one classification outcome.
func (g *Generator) count(st SegmentStatus) SegmentStatus {
	if int(st.Condition) >= 0 && int(st.Condition) < len(&g.classified) {
		g.classified[st.Condition].Add(1)
	}
	if st.Inferred {
		g.inferred.Add(1)
	}
	return st
}

// NewGenerator creates a WiLocator-style generator (full coverage via
// inference).
func NewGenerator(net *roadnet.Network, store *traveltime.Store, cfg Config) (*Generator, error) {
	cfg.InferUnknown = true
	return newGenerator(net, store, cfg)
}

// NewAgencyStyle creates the comparison generator that leaves segments
// without fresh evidence unconfirmed, as the paper observes of the transit
// agency's map.
func NewAgencyStyle(net *roadnet.Network, store *traveltime.Store, cfg Config) (*Generator, error) {
	cfg.InferUnknown = false
	return newGenerator(net, store, cfg)
}

func newGenerator(net *roadnet.Network, store *traveltime.Store, cfg Config) (*Generator, error) {
	if net == nil || store == nil {
		return nil, errors.New("trafficmap: nil network or store")
	}
	return &Generator{net: net, store: store, cfg: cfg.withDefaults()}, nil
}

// Classify returns the condition and z-statistic of one segment at time at.
func (g *Generator) Classify(seg roadnet.SegmentID, at time.Time) SegmentStatus {
	status := SegmentStatus{Seg: seg, Routes: g.net.RoutesOnSegment(seg)}
	slot := g.store.Plan().SlotOf(at)
	_, sigma, n := g.store.ResidualStats(seg, slot)

	recent := g.store.Recent(seg, at.Add(-g.cfg.RecentWindow), 0)
	if len(recent) == 0 || n < g.cfg.MinHistory || sigma == 0 {
		if g.cfg.InferUnknown {
			status.Condition = Normal
			status.Inferred = true
		} else {
			status.Condition = Unknown
		}
		return g.count(status)
	}

	// Current residual: epsilon-hat = mean over recent buses of
	// Th(i,j,l) - Tr(i,j) (Section V-A.4); negative = slower than usual.
	var sum float64
	k := 0
	for _, tr := range recent {
		th, hn := g.store.HistoricalMean(seg, tr.RouteID, slot)
		if hn == 0 {
			continue
		}
		sum += th - tr.Seconds
		k++
	}
	if k == 0 {
		if g.cfg.InferUnknown {
			status.Condition = Normal
			status.Inferred = true
		} else {
			status.Condition = Unknown
		}
		return g.count(status)
	}
	// Historical residual mean is ~0 by construction.
	status.Z = (sum / float64(k)) / sigma
	switch {
	case status.Z < g.cfg.VerySlowZ:
		status.Condition = VerySlow
	case status.Z < g.cfg.SlowZ:
		status.Condition = Slow
	default:
		status.Condition = Normal
	}
	return g.count(status)
}

// Map classifies every segment used by at least one route, in segment-ID
// order.
func (g *Generator) Map(at time.Time) []SegmentStatus {
	var out []SegmentStatus
	for _, seg := range g.net.Graph.Segments() {
		if len(g.net.RoutesOnSegment(seg.ID)) == 0 {
			continue
		}
		out = append(out, g.Classify(seg.ID, at))
	}
	return out
}

// MapForRoute classifies the segments of one route in travel order.
func (g *Generator) MapForRoute(routeID string, at time.Time) ([]SegmentStatus, error) {
	route, ok := g.net.Route(routeID)
	if !ok {
		return nil, fmt.Errorf("trafficmap: unknown route %q", routeID)
	}
	segs := route.Segments()
	out := make([]SegmentStatus, 0, len(segs))
	for _, sid := range segs {
		out = append(out, g.Classify(sid, at))
	}
	return out, nil
}

// MapWithRoutes classifies every segment used by at least one route exactly
// once at time at and returns both views of that single pass: the
// whole-network map (equal to Map) and each route's map in travel order
// (equal to MapForRoute), keyed by route ID. A publisher that needs all of
// them pays one classification per segment instead of one per (route,
// segment) pair, and the views cannot disagree about a shared segment.
func (g *Generator) MapWithRoutes(at time.Time) (all []SegmentStatus, byRoute map[string][]SegmentStatus) {
	all = g.Map(at)
	pos := make([]int, g.net.Graph.NumSegments())
	for i, st := range all {
		pos[st.Seg] = i
	}
	routes := g.net.Routes()
	byRoute = make(map[string][]SegmentStatus, len(routes))
	for _, route := range routes {
		out := make([]SegmentStatus, route.NumSegments())
		for i := range out {
			out[i] = all[pos[route.Segment(i)]]
		}
		byRoute[route.ID()] = out
	}
	return all, byRoute
}

// Render draws statuses as a one-character-per-segment strip, the textual
// analogue of Fig. 11's coloured road map.
func Render(statuses []SegmentStatus) string {
	var sb strings.Builder
	for _, st := range statuses {
		sb.WriteRune(st.Condition.Rune())
	}
	return sb.String()
}

// Coverage returns the fraction of statuses that are marked (not Unknown).
func Coverage(statuses []SegmentStatus) float64 {
	if len(statuses) == 0 {
		return 0
	}
	marked := 0
	for _, st := range statuses {
		if st.Condition != Unknown {
			marked++
		}
	}
	return float64(marked) / float64(len(statuses))
}

// Anomaly is a localised slowdown site identified from a bus trajectory
// (Fig. 6): a maximal run of consecutive fixes whose spacing collapsed.
type Anomaly struct {
	StartArc, EndArc float64
	Start, End       time.Time
}

// DetectAnomalies scans a trajectory for runs of at least minPoints
// consecutive fixes whose inter-fix road distance is below delta
// (the paper's system parameter δ, derived from the historical per-scan
// road distance). Runs centred within excludeRadius of any arc in
// excludeArcs (bus stops, signalled intersections — "easily identified
// based on the bus position") are suppressed as expected waits.
func DetectAnomalies(traj []locate.TrajectoryPoint, delta float64, minPoints int,
	excludeArcs []float64, excludeRadius float64) []Anomaly {
	if minPoints < 2 {
		minPoints = 2
	}
	var out []Anomaly
	runStart := -1
	flush := func(endIdx int) {
		if runStart < 0 {
			return
		}
		n := endIdx - runStart + 1
		defer func() { runStart = -1 }()
		if n < minPoints {
			return
		}
		a := Anomaly{
			StartArc: traj[runStart].Arc,
			EndArc:   traj[endIdx].Arc,
			Start:    traj[runStart].Time,
			End:      traj[endIdx].Time,
		}
		center := (a.StartArc + a.EndArc) / 2
		for _, ex := range excludeArcs {
			if abs(center-ex) <= excludeRadius {
				return
			}
		}
		out = append(out, a)
	}
	for i := 1; i < len(traj); i++ {
		if traj[i].Arc-traj[i-1].Arc < delta {
			if runStart < 0 {
				runStart = i - 1
			}
			continue
		}
		flush(i - 1)
	}
	flush(len(traj) - 1)
	return out
}

// DeltaFromHistory derives the anomaly threshold δ: frac times the typical
// road distance covered in one scan period at the segment's historical mean
// speed (the paper derives δ from historical per-scan road distance the same
// way the c1/c2 thresholds are derived).
func DeltaFromHistory(meanSpeed float64, scanPeriod time.Duration, frac float64) float64 {
	if frac <= 0 {
		frac = 0.35
	}
	return meanSpeed * scanPeriod.Seconds() * frac
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
