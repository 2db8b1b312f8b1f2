package locate

import (
	"errors"
	"fmt"
	"time"

	"wilocator/internal/geo"
	"wilocator/internal/roadnet"
	"wilocator/internal/wifi"
)

// TrackerConfig tunes the per-bus tracker. The zero value selects defaults.
type TrackerConfig struct {
	// MaxSpeed bounds the feasible advance between fixes, m/s. Default 20
	// (72 km/h — generous for an urban bus).
	MaxSpeed float64
	// Slack widens the feasibility window to absorb positioning noise,
	// metres. Default 40.
	Slack float64
	// SpeedSmoothing is the EMA coefficient for the speed estimate in
	// (0, 1]; higher reacts faster. Default 0.4.
	SpeedSmoothing float64
}

func (c TrackerConfig) withDefaults() TrackerConfig {
	if c.MaxSpeed <= 0 {
		c.MaxSpeed = 20
	}
	if c.Slack <= 0 {
		c.Slack = 40
	}
	if c.SpeedSmoothing <= 0 || c.SpeedSmoothing > 1 {
		c.SpeedSmoothing = 0.4
	}
	return c
}

// TrajectoryPoint is one fix of a bus trajectory (Definition 6; the paper
// stores <lat, long, t>, which is recoverable through a geo.Projection).
type TrajectoryPoint struct {
	Time time.Time `json:"time"`
	Arc  float64   `json:"arc"`
	Pos  geo.Point `json:"pos"`
}

// Crossing records the interpolated instant at which the bus passed from one
// road segment of its route to the next (Fig. 5: the arrival time at
// e_{i-1}.end / e_i.start, approximated by assuming steady speed between the
// two fixes straddling the intersection).
type Crossing struct {
	// SegIndex is the index (within the route's segment sequence) of the
	// segment being *entered*; SegIndex == NumSegments means the route end
	// was reached.
	SegIndex int
	// Arc is the boundary arc length.
	Arc float64
	// At is the interpolated crossing time.
	At time.Time
}

// Tracker tracks a single bus trip along one route, enforcing forward
// progress and emitting segment crossings. It is not safe for concurrent
// use; the server owns one tracker per active bus.
type Tracker struct {
	pos   *Positioner
	route *roadnet.Route
	cfg   TrackerConfig

	last     *Estimate
	speed    float64 // smoothed ground speed, m/s
	hasSpeed bool
	traj     []TrajectoryPoint
}

// NewTracker creates a tracker for a bus running routeID.
func NewTracker(pos *Positioner, routeID string, cfg TrackerConfig) (*Tracker, error) {
	if pos == nil {
		return nil, errors.New("locate: nil positioner")
	}
	route, ok := pos.Diagram().Network().Route(routeID)
	if !ok {
		return nil, fmt.Errorf("locate: unknown route %q", routeID)
	}
	return &Tracker{pos: pos, route: route, cfg: cfg.withDefaults()}, nil
}

// Route returns the tracked route.
func (t *Tracker) Route() *roadnet.Route { return t.route }

// Retarget re-points the tracker at a positioner over a rebuilt diagram. The
// trip state — last fix, smoothed speed, trajectory — survives; only the
// lookup structure changes. The new diagram must cover the tracked route
// (rebuilds over the same road network always do).
func (t *Tracker) Retarget(pos *Positioner) error {
	if pos == nil {
		return errors.New("locate: nil positioner")
	}
	route, ok := pos.Diagram().Network().Route(t.route.ID())
	if !ok {
		return fmt.Errorf("locate: rebuilt diagram lacks route %q", t.route.ID())
	}
	t.pos = pos
	t.route = route
	return nil
}

// Arc returns the latest estimated arc length, if any fix exists.
func (t *Tracker) Arc() (float64, bool) {
	if t.last == nil {
		return 0, false
	}
	return t.last.Arc, true
}

// Speed returns the smoothed speed estimate in m/s.
func (t *Tracker) Speed() (float64, bool) { return t.speed, t.hasSpeed }

// Trajectory returns a copy of the fixes so far.
func (t *Tracker) Trajectory() []TrajectoryPoint {
	cp := make([]TrajectoryPoint, len(t.traj))
	copy(cp, t.traj)
	return cp
}

// TrajectoryView returns the fixes so far without copying them. The tracker
// only ever appends to its trajectory, so the returned slice (capacity
// clipped to its length) stays valid and unchanged while the tracker keeps
// observing; the caller must treat it as read-only.
func (t *Tracker) TrajectoryView() []TrajectoryPoint {
	return t.traj[:len(t.traj):len(t.traj)]
}

// Observe incorporates one scan, returning the new estimate and any segment
// crossings completed since the previous fix. A scan yielding no fix
// (ErrNoFix) leaves the tracker state unchanged.
func (t *Tracker) Observe(scan wifi.Scan) (Estimate, []Crossing, error) {
	var prior *Prior
	if t.last != nil {
		dt := scan.Time.Sub(t.last.Time).Seconds()
		if dt < 0 {
			return Estimate{}, nil, fmt.Errorf("locate: scan at %v precedes last fix %v", scan.Time, t.last.Time)
		}
		expected := t.last.Arc
		if t.hasSpeed {
			expected += t.speed * dt
		}
		prior = &Prior{
			Arc:         t.last.Arc,
			ExpectedArc: expected,
			MinArc:      t.last.Arc - t.cfg.Slack,
			MaxArc:      t.last.Arc + t.cfg.MaxSpeed*dt + t.cfg.Slack,
		}
	}
	est, err := t.pos.Locate(t.route.ID(), scan, prior)
	if err != nil {
		return Estimate{}, nil, err
	}

	var crossings []Crossing
	if t.last != nil {
		// Mobility constraint: the bus travels forward along its route;
		// clamp regressions caused by RSS noise.
		if est.Arc < t.last.Arc {
			est.Arc = t.last.Arc
			est.Pos = t.route.PointAt(est.Arc)
		}
		dt := est.Time.Sub(t.last.Time).Seconds()
		if dt > 0 {
			inst := (est.Arc - t.last.Arc) / dt
			if t.hasSpeed {
				a := t.cfg.SpeedSmoothing
				t.speed = a*inst + (1-a)*t.speed
			} else {
				t.speed = inst
				t.hasSpeed = true
			}
			crossings = t.interpolateCrossings(t.last, &est)
		}
	}
	t.last = &est
	t.traj = append(t.traj, TrajectoryPoint{Time: est.Time, Arc: est.Arc, Pos: est.Pos})
	return est, crossings, nil
}

// interpolateCrossings emits one Crossing per segment boundary passed
// between fixes a and b, linearly interpolating time over arc (Fig. 5's
// steady-speed approximation).
func (t *Tracker) interpolateCrossings(a, b *Estimate) []Crossing {
	if b.Arc <= a.Arc {
		return nil
	}
	idxA, _, _ := t.route.SegmentAt(a.Arc)
	var out []Crossing
	dt := b.Time.Sub(a.Time)
	for idx := idxA; idx < t.route.NumSegments(); idx++ {
		boundary := t.route.SegmentEndArc(idx)
		if boundary <= a.Arc || boundary > b.Arc {
			if boundary > b.Arc {
				break
			}
			continue
		}
		frac := (boundary - a.Arc) / (b.Arc - a.Arc)
		out = append(out, Crossing{
			SegIndex: idx + 1,
			Arc:      boundary,
			At:       a.Time.Add(time.Duration(frac * float64(dt))),
		})
	}
	return out
}
