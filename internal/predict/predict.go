// Package predict implements WiLocator's bus arrival-time prediction
// (Section IV) plus the comparison baselines used in the evaluation.
//
// The WiLocator predictor estimates the travel time of the next bus of route
// j on road segment e_i as (Eq. 5/8):
//
//	Tp(i,j,t) = Th(i,j,l) + (1/K) * Σ_k [ Tr(i,k,l) − Th(i,k,l) ]
//
// — the route's own historical mean in the current time slot l, corrected by
// the mean residual of the K buses (of *any* route sharing the segment) that
// most recently traversed it. Arrival times at downstream stops compose
// per-segment predictions with fractional first/last segments (Eq. 9),
// advancing a virtual clock so predictions that span a slot boundary are
// evaluated slot-by-slot.
//
// The Transit-Agency baseline uses the same composition but no recency
// correction (schedule + historical mean only), and the same-route ablation
// restricts the correction to buses of the same route (the approach of the
// paper's references [28,29]).
package predict

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"wilocator/internal/roadnet"
	"wilocator/internal/traveltime"
)

// Default prediction parameters.
const (
	// DefaultRecentWindow bounds how old a "lately" traversal may be to
	// enter the Eq. 8 correction.
	DefaultRecentWindow = 25 * time.Minute
	// DefaultMaxRecent is J, the number of recent buses averaged.
	DefaultMaxRecent = 8
	// DefaultFallbackSpeedFrac estimates unseen segments at this fraction
	// of the speed limit.
	DefaultFallbackSpeedFrac = 0.6
)

// ErrStopBehind is returned when the requested stop is not ahead of the
// bus's current position.
var ErrStopBehind = errors.New("predict: stop is not ahead of the bus")

// Config tunes an Engine. The zero value selects the defaults.
type Config struct {
	// RecentWindow is the maximum age of traversals used in the correction.
	RecentWindow time.Duration
	// MaxRecent is J, the maximum number of recent traversals averaged.
	MaxRecent int
	// SameRouteOnly restricts the correction to the bus's own route — the
	// ablation contrasting WiLocator with Cell-ID systems that cannot share
	// across routes.
	SameRouteOnly bool
	// FallbackSpeedFrac sets the free-flow fraction for unseen segments.
	FallbackSpeedFrac float64
}

func (c Config) withDefaults() Config {
	if c.RecentWindow <= 0 {
		c.RecentWindow = DefaultRecentWindow
	}
	if c.MaxRecent <= 0 {
		c.MaxRecent = DefaultMaxRecent
	}
	if c.FallbackSpeedFrac <= 0 || c.FallbackSpeedFrac > 1 {
		c.FallbackSpeedFrac = DefaultFallbackSpeedFrac
	}
	return c
}

// Metrics counts SegmentTime's rule outcomes: which baseline each
// per-segment prediction started from, and whether the Eq. 8 recency
// correction was actually applied. All fields are atomics; one Metrics may
// be shared by concurrent predictions. Attach with Engine.SetMetrics.
type Metrics struct {
	// HistoricalMean counts predictions whose baseline was the route's own
	// historical mean in the current time slot (the Eq. 5 term).
	HistoricalMean atomic.Uint64
	// SegmentMeanFallback counts predictions that fell back to the
	// segment's all-route mean (no route history in the slot yet).
	SegmentMeanFallback atomic.Uint64
	// FreeFlowFallback counts predictions estimated from the speed limit
	// (segment never traversed).
	FreeFlowFallback atomic.Uint64
	// CorrectionApplied counts predictions whose baseline was corrected by
	// at least one recent traversal (the cross-route Eq. 8 term, K > 0).
	CorrectionApplied atomic.Uint64
}

// Engine predicts bus arrival times from the travel-time store.
type Engine struct {
	net       *roadnet.Network
	store     *traveltime.Store
	cfg       Config
	useRecent bool
	name      string
	metrics   *Metrics // nil: unobserved
}

// SetMetrics attaches outcome counters to the engine. Pass nil to detach.
// Not safe to race with in-flight predictions; attach at wiring time.
func (e *Engine) SetMetrics(m *Metrics) { e.metrics = m }

// NewWiLocator creates the full WiLocator predictor.
func NewWiLocator(net *roadnet.Network, store *traveltime.Store, cfg Config) (*Engine, error) {
	return newEngine(net, store, cfg, true, "wilocator")
}

// NewAgency creates the Transit-Agency baseline: historical means only, no
// recency correction.
func NewAgency(net *roadnet.Network, store *traveltime.Store, cfg Config) (*Engine, error) {
	return newEngine(net, store, cfg, false, "agency")
}

func newEngine(net *roadnet.Network, store *traveltime.Store, cfg Config, useRecent bool, name string) (*Engine, error) {
	if net == nil || store == nil {
		return nil, errors.New("predict: nil network or store")
	}
	return &Engine{net: net, store: store, cfg: cfg.withDefaults(), useRecent: useRecent, name: name}, nil
}

// Name identifies the engine variant ("wilocator" or "agency").
func (e *Engine) Name() string {
	if e.useRecent && e.cfg.SameRouteOnly {
		return e.name + "-sameroute"
	}
	return e.name
}

// SegmentTime predicts how long a bus of routeID will take to traverse
// segment segID starting at time at (Eq. 8), in seconds.
func (e *Engine) SegmentTime(segID roadnet.SegmentID, routeID string, at time.Time) (float64, error) {
	seg, ok := e.net.Graph.Segment(segID)
	if !ok {
		return 0, fmt.Errorf("predict: unknown segment %d", segID)
	}
	slot := e.store.Plan().SlotOf(at)
	th, n := e.store.HistoricalMean(segID, routeID, slot)
	if n == 0 {
		// Fall back to the segment's all-route mean, then to free flow.
		if m, sn := e.store.SegmentMean(segID); sn > 0 {
			th = m
			if e.metrics != nil {
				e.metrics.SegmentMeanFallback.Add(1)
			}
		} else {
			th = seg.Length() / (seg.SpeedLimit * e.cfg.FallbackSpeedFrac)
			if e.metrics != nil {
				e.metrics.FreeFlowFallback.Add(1)
			}
		}
	} else if e.metrics != nil {
		e.metrics.HistoricalMean.Add(1)
	}
	if !e.useRecent {
		return th, nil
	}

	recent := e.store.Recent(segID, at.Add(-e.cfg.RecentWindow), e.cfg.MaxRecent)
	var sum float64
	k := 0
	for _, tr := range recent {
		if e.cfg.SameRouteOnly && tr.RouteID != routeID {
			continue
		}
		// Eq. 8 uses Tr(i,k,l): only traversals from the *current* slot l,
		// so a pre-rush residual never corrupts a rush-hour baseline.
		if e.store.Plan().SlotOf(tr.Exit) != slot {
			continue
		}
		thk, nk := e.store.HistoricalMean(segID, tr.RouteID, slot)
		if nk == 0 {
			continue
		}
		sum += tr.Seconds - thk
		k++
	}
	if k > 0 {
		th += sum / float64(k)
		if e.metrics != nil {
			e.metrics.CorrectionApplied.Add(1)
		}
	}
	// Never predict faster than free flow at the speed limit.
	if min := seg.Length() / seg.SpeedLimit; th < min {
		th = min
	}
	return th, nil
}

// PredictArrival predicts when a bus of routeID currently at arc fromArc (at
// time at) will reach its stopIdx-th stop, composing per-segment predictions
// with fractional first and last segments (Eq. 9).
func (e *Engine) PredictArrival(routeID string, fromArc float64, at time.Time, stopIdx int) (time.Time, error) {
	route, ok := e.net.Route(routeID)
	if !ok {
		return time.Time{}, fmt.Errorf("predict: unknown route %q", routeID)
	}
	if stopIdx < 0 || stopIdx >= route.NumStops() {
		return time.Time{}, fmt.Errorf("predict: stop index %d outside [0, %d)", stopIdx, route.NumStops())
	}
	target := route.StopArc(stopIdx)
	if target <= fromArc {
		return time.Time{}, fmt.Errorf("%w: stop %d at arc %.1f, bus at %.1f", ErrStopBehind, stopIdx, target, fromArc)
	}

	clock := at
	arc := fromArc
	idx, _, _ := route.SegmentAt(arc)
	for {
		segID := route.Segment(idx)
		segStart := route.SegmentStartArc(idx)
		segEnd := route.SegmentEndArc(idx)
		segLen := segEnd - segStart
		full, err := e.SegmentTime(segID, routeID, clock)
		if err != nil {
			return time.Time{}, err
		}
		end := segEnd
		if target < segEnd {
			end = target
		}
		if segLen > 0 {
			frac := (end - arc) / segLen
			clock = clock.Add(time.Duration(frac * full * float64(time.Second)))
		}
		if target <= segEnd {
			return clock, nil
		}
		arc = segEnd
		idx++
		if idx >= route.NumSegments() {
			return clock, nil
		}
	}
}

// PredictAllStops predicts arrival times at every stop strictly ahead of
// fromArc, in stop order. It is one forward sweep along the route: the
// virtual clock advances segment by segment exactly as in PredictArrival,
// and every stop the sweep passes is emitted from the clock at its segment's
// start — the same float operations in the same order, so each ETA equals
// PredictArrival's for that stop, at one SegmentTime call per segment ahead
// instead of one per (stop, segment) pair.
//
// If a segment prediction fails, the stops before that segment are returned
// alongside the error (every later stop would fail the same way).
func (e *Engine) PredictAllStops(routeID string, fromArc float64, at time.Time) ([]StopPrediction, error) {
	route, ok := e.net.Route(routeID)
	if !ok {
		return nil, fmt.Errorf("predict: unknown route %q", routeID)
	}
	stop := route.NextStopIndex(fromArc)
	numStops := route.NumStops()
	if stop >= numStops {
		return nil, nil
	}
	out := make([]StopPrediction, 0, numStops-stop)

	clock := at
	arc := fromArc
	idx, _, _ := route.SegmentAt(arc)
	for {
		segStart := route.SegmentStartArc(idx)
		segEnd := route.SegmentEndArc(idx)
		segLen := segEnd - segStart
		full, err := e.SegmentTime(route.Segment(idx), routeID, clock)
		if err != nil {
			return out, err
		}
		for ; stop < numStops && route.StopArc(stop) <= segEnd; stop++ {
			eta := clock
			if segLen > 0 {
				frac := (route.StopArc(stop) - arc) / segLen
				eta = clock.Add(time.Duration(frac * full * float64(time.Second)))
			}
			out = append(out, StopPrediction{StopIndex: stop, ETA: eta})
		}
		if stop >= numStops {
			return out, nil
		}
		if segLen > 0 {
			frac := (segEnd - arc) / segLen
			clock = clock.Add(time.Duration(frac * full * float64(time.Second)))
		}
		arc = segEnd
		idx++
		if idx >= route.NumSegments() {
			// Past the last segment PredictArrival returns the clock as is.
			for ; stop < numStops; stop++ {
				out = append(out, StopPrediction{StopIndex: stop, ETA: clock})
			}
			return out, nil
		}
	}
}

// StopPrediction is one stop's predicted arrival.
type StopPrediction struct {
	StopIndex int       `json:"stopIndex"`
	ETA       time.Time `json:"eta"`
}
