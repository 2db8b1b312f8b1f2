package traveltime

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"wilocator/internal/roadnet"
)

// Record is one observed traversal of a road segment by one bus. Enter and
// Exit are the (interpolated) boundary-crossing instants from the tracker.
type Record struct {
	Seg     roadnet.SegmentID `json:"seg"`
	RouteID string            `json:"routeId"`
	Enter   time.Time         `json:"enter"`
	Exit    time.Time         `json:"exit"`
}

// Duration returns the traversal time.
func (r Record) Duration() time.Duration { return r.Exit.Sub(r.Enter) }

// Traversal is a compact view of a recent segment traversal.
type Traversal struct {
	RouteID string
	Exit    time.Time
	Seconds float64
}

// maxDurationsPerKey bounds the per-(segment, route, slot) duration history
// retained for residual statistics.
const maxDurationsPerKey = 4096

// maxRecentPerSegment bounds the recent-traversal ring per segment.
const maxRecentPerSegment = 32

type histKey struct {
	seg   roadnet.SegmentID
	route string
	slot  int
}

type hourKey struct {
	seg   roadnet.SegmentID
	hour  int
	route string
}

type meanAcc struct {
	sum float64
	n   int
}

func (a *meanAcc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Store accumulates travel-time records. It is safe for concurrent use: the
// server ingests crossings while queries run.
//
// Every mutation advances a generation counter. Add stamps the record's
// segment with the new generation; ReadFrom, which replaces every segment at
// once, raises a floor instead. A reader that derived something from a set
// of segments at generation g asks ChangedSince(g, segs) whether any of them
// may have changed since (see the snapshot publisher's per-bus memo).
type Store struct {
	mu   sync.RWMutex
	plan SlotPlan

	hist   map[histKey]*meanAcc
	durs   map[histKey][]float64
	recent map[roadnet.SegmentID][]Traversal
	hourly map[hourKey]*meanAcc
	allSeg map[roadnet.SegmentID]*meanAcc

	gen      uint64                       // bumped by every mutation
	floor    uint64                       // generation of the last ReadFrom
	modified map[roadnet.SegmentID]uint64 // generation of each segment's last Add
}

// NewStore creates a store slotting records by plan.
func NewStore(plan SlotPlan) *Store {
	return &Store{
		plan:   plan,
		hist:   make(map[histKey]*meanAcc),
		durs:   make(map[histKey][]float64),
		recent: make(map[roadnet.SegmentID][]Traversal),
		hourly: make(map[hourKey]*meanAcc),
		allSeg: make(map[roadnet.SegmentID]*meanAcc),

		modified: make(map[roadnet.SegmentID]uint64),
	}
}

// Plan returns the slot plan.
func (s *Store) Plan() SlotPlan { return s.plan }

// Add ingests one record. Records with non-positive duration are rejected.
func (s *Store) Add(rec Record) error {
	d := rec.Duration().Seconds()
	if d <= 0 {
		return fmt.Errorf("traveltime: non-positive duration %v on segment %d", rec.Duration(), rec.Seg)
	}
	if rec.RouteID == "" {
		return fmt.Errorf("traveltime: record without route")
	}
	slot := s.plan.SlotOf(rec.Enter)
	hk := histKey{seg: rec.Seg, route: rec.RouteID, slot: slot}
	hr := hourKey{seg: rec.Seg, hour: rec.Enter.Hour(), route: rec.RouteID}

	s.mu.Lock()
	defer s.mu.Unlock()

	acc := s.hist[hk]
	if acc == nil {
		acc = &meanAcc{}
		s.hist[hk] = acc
	}
	acc.sum += d
	acc.n++

	if ds := s.durs[hk]; len(ds) < maxDurationsPerKey {
		s.durs[hk] = append(ds, d)
	}

	ha := s.hourly[hr]
	if ha == nil {
		ha = &meanAcc{}
		s.hourly[hr] = ha
	}
	ha.sum += d
	ha.n++

	sa := s.allSeg[rec.Seg]
	if sa == nil {
		sa = &meanAcc{}
		s.allSeg[rec.Seg] = sa
	}
	sa.sum += d
	sa.n++

	ring := append(s.recent[rec.Seg], Traversal{RouteID: rec.RouteID, Exit: rec.Exit, Seconds: d})
	if len(ring) > maxRecentPerSegment {
		ring = ring[len(ring)-maxRecentPerSegment:]
	}
	s.recent[rec.Seg] = ring
	s.gen++
	s.modified[rec.Seg] = s.gen
	return nil
}

// Generation returns the store's mutation generation: it advances on every
// Add and ReadFrom and never goes back.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// ChangedSince reports whether any read about one of segs may answer
// differently than it did at generation gen: a record landed on one of them
// after gen, or ReadFrom replaced the whole store after gen.
func (s *Store) ChangedSince(gen uint64, segs []roadnet.SegmentID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.floor > gen {
		return true
	}
	for _, seg := range segs {
		if s.modified[seg] > gen {
			return true
		}
	}
	return false
}

// HistoricalMean returns Th(i,j,l): the mean travel time (seconds) of route
// routeID on segment seg during slot, and the sample count.
func (s *Store) HistoricalMean(seg roadnet.SegmentID, routeID string, slot int) (float64, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	acc := s.hist[histKey{seg: seg, route: routeID, slot: slot}]
	if acc == nil {
		return 0, 0
	}
	return acc.mean(), acc.n
}

// SegmentMean returns the all-route, all-slot mean travel time on seg — the
// fallback when a (route, slot) cell has no history yet.
func (s *Store) SegmentMean(seg roadnet.SegmentID) (float64, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	acc := s.allSeg[seg]
	if acc == nil {
		return 0, 0
	}
	return acc.mean(), acc.n
}

// Recent returns up to limit traversals of seg that completed at or after
// since, most recent last. limit <= 0 means no limit.
func (s *Store) Recent(seg roadnet.SegmentID, since time.Time, limit int) []Traversal {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ring := s.recent[seg]
	i := sort.Search(len(ring), func(i int) bool { return !ring[i].Exit.Before(since) })
	out := ring[i:]
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	cp := make([]Traversal, len(out))
	copy(cp, out)
	return cp
}

// ResidualStats returns the mean and standard deviation of the historical
// residuals Th(i,j,l) - T(i,j,l) on segment seg in slot (the paper's
// environment term: positive residual = faster than usual, negative =
// slower), along with the sample count.
func (s *Store) ResidualStats(seg roadnet.SegmentID, slot int) (mean, std float64, n int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var sum, sumSq float64
	for hk, ds := range s.durs {
		if hk.seg != seg || hk.slot != slot {
			continue
		}
		acc := s.hist[hk]
		if acc == nil {
			// Defensive: a duration history without its mean (possible only
			// via a hand-edited snapshot) carries no usable residuals.
			continue
		}
		th := acc.mean()
		for _, d := range ds {
			r := th - d
			sum += r
			sumSq += r * r
			n++
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	mean = sum / float64(n)
	v := sumSq/float64(n) - mean*mean
	if v < 0 {
		v = 0
	}
	return mean, math.Sqrt(v), n
}

// SeasonalIndex returns SI(i,l) for segment seg over 24 hourly slots
// (Eq. 6): the ratio of the hour's mean travel time T̄(i,·,·,l) to the
// segment's overall mean T̄(i,·,·,·). Following the paper's formula, routes
// are weighted equally within an hour (not by trip count, so a
// high-frequency rapid line does not drown out the ordinary routes). Hours
// with no data get index 0.
func (s *Store) SeasonalIndex(seg roadnet.SegmentID) []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]float64, 24)
	hours := make([]float64, 24)
	present := make([]bool, 24)
	var total float64
	totalN := 0
	for h := 0; h < 24; h++ {
		var sum float64
		n := 0
		for hk, a := range s.hourly {
			if hk.seg == seg && hk.hour == h {
				sum += a.mean()
				n++
			}
		}
		if n == 0 {
			continue
		}
		hours[h] = sum / float64(n)
		present[h] = true
		total += hours[h]
		totalN++
	}
	if totalN == 0 {
		return out
	}
	overall := total / float64(totalN)
	if overall == 0 {
		return out
	}
	for h := range hours {
		if present[h] {
			out[h] = hours[h] / overall
		}
	}
	return out
}

// NumRecords returns the total number of ingested records.
func (s *Store) NumRecords() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, a := range s.allSeg {
		n += a.n
	}
	return n
}
