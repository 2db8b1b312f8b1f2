package traveltime

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"wilocator/internal/roadnet"
)

// snapshotVersion guards the on-disk format.
const snapshotVersion = 1

// snapshot is the JSON persistence schema of a Store. It captures the
// aggregates the store actually keeps (historical means, capped duration
// histories, recent rings, hourly means) rather than raw records, so a
// reload reproduces the store state exactly.
type snapshot struct {
	Version    int        `json:"version"`
	PlanBounds []int      `json:"planBounds"`
	Hist       []histSnap `json:"hist"`
	Durs       []durSnap  `json:"durs"`
	Recent     []ringSnap `json:"recent"`
	Hourly     []hourSnap `json:"hourly"`
	AllSeg     []segSnap  `json:"allSeg"`
}

type histSnap struct {
	Seg   roadnet.SegmentID `json:"seg"`
	Route string            `json:"route"`
	Slot  int               `json:"slot"`
	Sum   float64           `json:"sum"`
	N     int               `json:"n"`
}

type durSnap struct {
	Seg       roadnet.SegmentID `json:"seg"`
	Route     string            `json:"route"`
	Slot      int               `json:"slot"`
	Durations []float64         `json:"durations"`
}

type ringSnap struct {
	Seg        roadnet.SegmentID `json:"seg"`
	Traversals []traversalSnap   `json:"traversals"`
}

type traversalSnap struct {
	Route   string    `json:"route"`
	Exit    time.Time `json:"exit"`
	Seconds float64   `json:"seconds"`
}

type hourSnap struct {
	Seg   roadnet.SegmentID `json:"seg"`
	Hour  int               `json:"hour"`
	Route string            `json:"route"`
	Sum   float64           `json:"sum"`
	N     int               `json:"n"`
}

type segSnap struct {
	Seg roadnet.SegmentID `json:"seg"`
	Sum float64           `json:"sum"`
	N   int               `json:"n"`
}

// WriteTo serialises the store as JSON. The output is deterministic
// (entries sorted), so snapshots diff cleanly. It implements io.WriterTo.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	s.mu.RLock()
	snap := snapshot{Version: snapshotVersion, PlanBounds: s.plan.Bounds()}
	for k, a := range s.hist {
		snap.Hist = append(snap.Hist, histSnap{Seg: k.seg, Route: k.route, Slot: k.slot, Sum: a.sum, N: a.n})
	}
	for k, ds := range s.durs {
		cp := make([]float64, len(ds))
		copy(cp, ds)
		snap.Durs = append(snap.Durs, durSnap{Seg: k.seg, Route: k.route, Slot: k.slot, Durations: cp})
	}
	for seg, ring := range s.recent {
		rs := ringSnap{Seg: seg}
		for _, tr := range ring {
			rs.Traversals = append(rs.Traversals, traversalSnap{Route: tr.RouteID, Exit: tr.Exit, Seconds: tr.Seconds})
		}
		snap.Recent = append(snap.Recent, rs)
	}
	for k, a := range s.hourly {
		snap.Hourly = append(snap.Hourly, hourSnap{Seg: k.seg, Hour: k.hour, Route: k.route, Sum: a.sum, N: a.n})
	}
	for seg, a := range s.allSeg {
		snap.AllSeg = append(snap.AllSeg, segSnap{Seg: seg, Sum: a.sum, N: a.n})
	}
	s.mu.RUnlock()

	sort.Slice(snap.Hist, func(i, j int) bool { return histLess(snap.Hist[i], snap.Hist[j]) })
	sort.Slice(snap.Durs, func(i, j int) bool {
		a, b := snap.Durs[i], snap.Durs[j]
		return histLess(histSnap{Seg: a.Seg, Route: a.Route, Slot: a.Slot},
			histSnap{Seg: b.Seg, Route: b.Route, Slot: b.Slot})
	})
	sort.Slice(snap.Recent, func(i, j int) bool { return snap.Recent[i].Seg < snap.Recent[j].Seg })
	sort.Slice(snap.Hourly, func(i, j int) bool {
		a, b := snap.Hourly[i], snap.Hourly[j]
		if a.Seg != b.Seg {
			return a.Seg < b.Seg
		}
		if a.Hour != b.Hour {
			return a.Hour < b.Hour
		}
		return a.Route < b.Route
	})
	sort.Slice(snap.AllSeg, func(i, j int) bool { return snap.AllSeg[i].Seg < snap.AllSeg[j].Seg })

	cw := &countingWriter{w: w}
	enc := json.NewEncoder(cw)
	if err := enc.Encode(snap); err != nil {
		return cw.n, fmt.Errorf("traveltime: encode snapshot: %w", err)
	}
	return cw.n, nil
}

func histLess(a, b histSnap) bool {
	if a.Seg != b.Seg {
		return a.Seg < b.Seg
	}
	if a.Route != b.Route {
		return a.Route < b.Route
	}
	return a.Slot < b.Slot
}

// ReadFrom replaces the store's contents with a snapshot previously written
// by WriteTo. The snapshot's slot plan must match the store's. It implements
// io.ReaderFrom.
func (s *Store) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	var snap snapshot
	if err := json.NewDecoder(cr).Decode(&snap); err != nil {
		return cr.n, fmt.Errorf("traveltime: decode snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return cr.n, fmt.Errorf("traveltime: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if !equalInts(snap.PlanBounds, s.plan.Bounds()) {
		return cr.n, fmt.Errorf("traveltime: snapshot slot plan %v does not match store plan %v",
			snap.PlanBounds, s.plan.Bounds())
	}

	hist := make(map[histKey]*meanAcc, len(snap.Hist))
	for _, h := range snap.Hist {
		hist[histKey{seg: h.Seg, route: h.Route, slot: h.Slot}] = &meanAcc{sum: h.Sum, n: h.N}
	}
	durs := make(map[histKey][]float64, len(snap.Durs))
	for _, d := range snap.Durs {
		k := histKey{seg: d.Seg, route: d.Route, slot: d.Slot}
		if hist[k] == nil {
			return cr.n, fmt.Errorf("traveltime: snapshot has durations without a mean for segment %d route %q slot %d",
				d.Seg, d.Route, d.Slot)
		}
		cp := make([]float64, len(d.Durations))
		copy(cp, d.Durations)
		durs[k] = cp
	}
	recent := make(map[roadnet.SegmentID][]Traversal, len(snap.Recent))
	for _, rs := range snap.Recent {
		ring := make([]Traversal, 0, len(rs.Traversals))
		for _, tr := range rs.Traversals {
			ring = append(ring, Traversal{RouteID: tr.Route, Exit: tr.Exit, Seconds: tr.Seconds})
		}
		recent[rs.Seg] = ring
	}
	hourly := make(map[hourKey]*meanAcc, len(snap.Hourly))
	for _, h := range snap.Hourly {
		hourly[hourKey{seg: h.Seg, hour: h.Hour, route: h.Route}] = &meanAcc{sum: h.Sum, n: h.N}
	}
	allSeg := make(map[roadnet.SegmentID]*meanAcc, len(snap.AllSeg))
	for _, a := range snap.AllSeg {
		allSeg[a.Seg] = &meanAcc{sum: a.Sum, n: a.N}
	}

	s.mu.Lock()
	s.hist = hist
	s.durs = durs
	s.recent = recent
	s.hourly = hourly
	s.allSeg = allSeg
	s.gen++
	s.floor = s.gen
	clear(s.modified)
	s.mu.Unlock()
	return cr.n, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
