package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/locate"
	"wilocator/internal/predict"
	"wilocator/internal/roadnet"
	"wilocator/internal/trafficmap"
)

// This file is the epoch-snapshot publisher: the read side of the service.
//
// Every rider-facing read product — per-route vehicle lists, per-stop
// arrival tables, the traffic map, anomaly reports and trajectories — is
// precomputed into one immutable readSnapshot behind an atomic pointer. The
// JSON response body of a cell is rendered from that data by the first read
// that answers 200 for it and shared by every later read of the epoch, so a
// publish pays only for the data, and a cell nobody asks for is never
// encoded. A GET is then a pointer load plus a byte write: zero read-side
// lock acquisitions, and 100k subscribers watching one route cost one
// computation and one render, not 100k.
//
// # Epochs and dirtiness
//
// Mutations (accepted reports, registrations, evictions, travel-time
// records) bump a dirty counter; a snapshot records the counter value it was
// computed at (asOf). A read loads the counter once, on entry, and serves the
// published snapshot straight from the atomic pointer when its asOf covers
// that value. Otherwise it takes the publish lock — waiting for a publish
// already in flight — and serves the snapshot it finds there if that one
// covers the value it loaded, or publishes the next epoch itself. So a read
// that starts after a report was acked observes that report
// (read-your-writes), one publish serves every reader that was waiting for
// it, and at quiescence every read is exactly as fresh as a recompute at
// call time, which is what the byte-equivalence tests pin.
//
// Because two products of one snapshot were captured in a single pass, a
// request pairing Anomalies with Trajectory (or Vehicles with Arrivals) can
// no longer observe mid-update state across two lock acquisitions: all
// products of one epoch are mutually consistent.
//
// # Time-driven refresh
//
// Staleness filtering and traffic-map classification depend on the clock,
// not only on data mutations, so a snapshot also expires by age: once it is
// FusionWindow old (or the injected clock moved backwards), the next read
// republishes. Under a frozen test clock the age stays zero and reads are
// pure atomic loads.
//
// # Publishing only what changed
//
// Most of a publish is per-bus work that rarely changes between epochs: an
// epoch typically moves a few of the live buses and adds no travel-time
// record. The publisher therefore keeps each live bus's arrival sweep and
// anomaly scan from one publish to the next (publishMemo) and reuses them
// when their inputs are unchanged. A sweep is a pure function of the bus's
// route, arc and last update (the recency window is measured from the
// update, not from the publish instant) and of the store's state on the
// segments from the bus's segment to the end of the route; the store stamps
// each segment with the generation of its last record, so the reuse is
// exact. An anomaly scan is a pure function of the trajectory prefix (the
// tracker and its length, since a tracker only appends) and the route's δ.
//
// Lock ordering: snap.mu → (shard.mu → busState.mu → store.mu) during a
// publish, and snap.mu → store.mu when the memo asks the store what changed;
// snap.mu → broadcaster.mu during a broadcast. No path acquires them in any
// other order.

// readStats holds the read-path counters (atomics; the GET path never locks
// for accounting). Invariant: notModified <= serves — the handler increments
// serves before notModified, and ReadStats loads notModified first.
type readStats struct {
	publishes     atomic.Uint64
	serves        atomic.Uint64
	notModified   atomic.Uint64
	streamDeltas  atomic.Uint64
	streamFrames  atomic.Uint64
	streamDropped atomic.Uint64
	streamResumes atomic.Uint64
	subscribers   atomic.Int64
}

// snapState is the publisher state: the dirty counter bumped by every
// mutation, the current snapshot, the single-flight publish lock, and the
// per-bus results the next publish may reuse.
type snapState struct {
	dirty atomic.Uint64
	cur   atomic.Pointer[readSnapshot]
	mu    sync.Mutex  // single-flight publisher; stale readers wait on it
	memo  publishMemo // guarded by mu
}

// publishMemo holds the previous publish's arrival sweep and anomaly scan of
// every live bus, keyed by bus ID, with the inputs each was computed from.
// A publish reads the previous results from sweeps/anoms and writes the
// ones it serves to nextSweeps/nextAnoms; the pairs then swap and the new
// next maps are cleared, so a bus that left the live set drops out after
// one publish and the maps keep their storage from epoch to epoch.
type publishMemo struct {
	sweeps, nextSweeps map[string]sweepMemo
	anoms, nextAnoms   map[string]anomalyMemo
	routeSegs          map[string][]roadnet.SegmentID // every route's segments, in order
}

// sweepMemo is one bus's PredictAllStops result and its key: the sweep is
// reused while the route, arc and update are the same and no segment from
// the bus's segment to the end of the route changed since gen.
type sweepMemo struct {
	routeID string
	arc     float64
	updated time.Time
	gen     uint64 // store generation read before the sweep ran
	preds   []predict.StopPrediction
	err     error
}

// anomalyMemo is one bus's DetectAnomalies result over the first fixes
// points of its tracker's trajectory at δ = delta.
type anomalyMemo struct {
	tracker *locate.Tracker
	fixes   int
	delta   float64
	found   []trafficmap.Anomaly
}

func newPublishMemo(net *roadnet.Network) publishMemo {
	m := publishMemo{
		sweeps:     make(map[string]sweepMemo),
		nextSweeps: make(map[string]sweepMemo),
		anoms:      make(map[string]anomalyMemo),
		nextAnoms:  make(map[string]anomalyMemo),
		routeSegs:  make(map[string][]roadnet.SegmentID),
	}
	for _, rt := range net.Routes() {
		m.routeSegs[rt.ID()] = rt.Segments()
	}
	return m
}

// advance ends a publish: what it served becomes what the next one may
// reuse.
func (m *publishMemo) advance() {
	m.sweeps, m.nextSweeps = m.nextSweeps, m.sweeps
	m.anoms, m.nextAnoms = m.nextAnoms, m.anoms
	clear(m.nextSweeps)
	clear(m.nextAnoms)
}

// sweep returns vehicle v's arrival sweep along route: the previous
// publish's when its key still holds, else a fresh PredictAllStops. gen is
// the store generation read before this publish's first sweep, so a record
// that lands while a sweep runs invalidates it for the next publish. The
// update must match in location as well as instant: the ETAs carry it.
func (s *Service) sweep(route *roadnet.Route, v api.VehicleStatus, gen uint64) ([]predict.StopPrediction, error) {
	m := &s.snap.memo
	routeID := route.ID()
	if e, ok := m.sweeps[v.BusID]; ok && e.routeID == routeID && e.arc == v.Arc &&
		e.updated.Equal(v.Updated) && e.updated.Location() == v.Updated.Location() {
		idx, _, _ := route.SegmentAt(v.Arc)
		if !s.store.ChangedSince(e.gen, m.routeSegs[routeID][idx:]) {
			m.nextSweeps[v.BusID] = e
			return e.preds, e.err
		}
	}
	preds, err := s.pred.PredictAllStops(routeID, v.Arc, v.Updated)
	m.nextSweeps[v.BusID] = sweepMemo{routeID: routeID, arc: v.Arc, updated: v.Updated, gen: gen, preds: preds, err: err}
	return preds, err
}

// detect returns the anomalies of bus b under its route's parameters: the
// previous publish's when b's tracker, fix count and δ are unchanged. A nil
// memo (the call-time reference path) always detects afresh.
func (m *publishMemo) detect(b busCapture, rp routeParams) []trafficmap.Anomaly {
	if m != nil {
		if e, ok := m.anoms[b.id]; ok && e.tracker == b.tracker && e.fixes == len(b.traj) && e.delta == rp.delta {
			m.nextAnoms[b.id] = e
			return e.found
		}
	}
	found := trafficmap.DetectAnomalies(b.traj, rp.delta, anomalyMinPoints, rp.exclude, 30)
	if m != nil {
		m.nextAnoms[b.id] = anomalyMemo{tracker: b.tracker, fixes: len(b.traj), delta: rp.delta, found: found}
	}
	return found
}

// The cells of a snapshot hold their data, fixed at publish, and the JSON
// body of that data, rendered by marshalBody on the first render call and
// shared by every later one: concurrent first readers wait for one render.
// A cell holds a sync.Once, so it is always reached by pointer.

// vehiclesCell is one live-vehicle list (route key "" = all routes).
type vehiclesCell struct {
	vs   []api.VehicleStatus
	once sync.Once
	body []byte
}

func (c *vehiclesCell) render() []byte {
	c.once.Do(func() { c.body = renderList(c.vs) })
	return c.body
}

// arrivalCell is one (route, stop) entry of the precomputed arrival table.
type arrivalCell struct {
	ests []api.ArrivalEstimate
	err  error // a prediction error surfaced by the old per-request path
	once sync.Once
	body []byte
}

func (c *arrivalCell) render() []byte {
	c.once.Do(func() { c.body = renderList(c.ests) })
	return c.body
}

// tmapCell is one precomputed traffic-map response (route key "" = whole
// network).
type tmapCell struct {
	resp api.TrafficMapResponse
	once sync.Once
	body []byte
}

func (c *tmapCell) render() []byte {
	c.once.Do(func() { c.body = marshalBody(c.resp) })
	return c.body
}

// readSnapshot is one immutable epoch of the read-serving state. Its data is
// never mutated after publish, and a cell's body is written once, under the
// cell's sync.Once, from that data; readers share it freely.
type readSnapshot struct {
	epoch       uint64
	asOf        uint64 // dirty counter value the capture covers
	generatedAt time.Time
	etag        string // strong ETag, derived from the epoch

	vehicles     map[string]*vehiclesCell // "" = all routes
	arrivals     map[string][]arrivalCell // routeID -> stop index
	tmaps        map[string]*tmapCell     // "" = all routes
	anomalies    []api.AnomalyReport      // all routes, sorted
	trajectories map[string]busTrajectory // by bus ID
}

// vehiclesOf returns the live vehicles of one route ("" = all), nil for a
// route the network does not have.
func (snap *readSnapshot) vehiclesOf(routeID string) []api.VehicleStatus {
	if c := snap.vehicles[routeID]; c != nil {
		return c.vs
	}
	return nil
}

// busTrajectory is one bus's fixes as the tracker recorded them; the
// trajectory read projects them to <lat, long, t> when it is asked for.
type busTrajectory struct {
	routeID string
	fixes   []locate.TrajectoryPoint // shared with the tracker, read-only
}

// nullBody is the rendered JSON of a nil slice, matching writeJSON's
// json.Encoder output (trailing newline included).
var nullBody = []byte("null\n")

// marshalBody renders v exactly as writeJSON does (json.Encoder semantics:
// HTML escaping on, trailing newline), so a snapshot cell's body is
// byte-identical to what the old per-request encode produced.
func marshalBody(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		// The read products are plain data structs; an encode failure is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("server: snapshot encode: %v", err))
	}
	return buf.Bytes()
}

// renderList renders a list body; a nil list answers the shared nullBody.
func renderList[T any](list []T) []byte {
	if list == nil {
		return nullBody
	}
	return marshalBody(list)
}

// renderNull is the render of a cell the snapshot does not have.
func renderNull() []byte { return nullBody }

// markDirty records a mutation of read-visible state and pokes the broadcast
// pump when one is running. Called with the mutated state's lock still held,
// so a concurrent capture either reads the dirty counter before this bump
// (and will be recomputed by the next read) or blocks on the per-bus lock
// until the mutation is fully visible.
func (s *Service) markDirty() {
	s.snap.dirty.Add(1)
	if b := s.bcast; b != nil {
		b.poke()
	}
}

// covers reports whether snap may answer a read that loaded the dirty
// counter value want on entry and runs at time now: the capture covers
// every mutation the reader could have been acked for, and the snapshot is
// inside its fusion window.
func (s *Service) covers(snap *readSnapshot, want uint64, now time.Time) bool {
	if snap.asOf < want {
		return false
	}
	age := now.Sub(snap.generatedAt)
	return age >= 0 && age < s.cfg.FusionWindow
}

// currentSnapshot returns the snapshot to serve: the published one when it
// covers every mutation made before the call, otherwise the result of a
// single-flight republish. A reader that finds a publish in flight waits
// for it (a publish is a few milliseconds) rather than serving the previous
// epoch, so an acked report is never missing from a later read. NewService
// publishes the initial snapshot synchronously, so cur is never nil.
func (s *Service) currentSnapshot() *readSnapshot {
	want := s.snap.dirty.Load()
	if cur := s.snap.cur.Load(); s.covers(cur, want, s.cfg.Now()) {
		return cur
	}
	s.snap.mu.Lock()
	defer s.snap.mu.Unlock()
	now := s.cfg.Now()
	cur := s.snap.cur.Load()
	if s.covers(cur, want, now) {
		return cur // the publish we waited for already covers this read
	}
	// Load dirty before capturing: a mutation landing mid-capture leaves
	// asOf behind the counter, so the next read recomputes.
	asOf := s.snap.dirty.Load()
	next := s.computeSnapshot(asOf, cur.epoch+1, now)
	s.snap.cur.Store(next)
	s.read.publishes.Add(1)
	return next
}

// PublishSnapshot republishes the read snapshot if the state is dirty and
// broadcasts the resulting epoch to the SSE subscribers (each epoch is
// broadcast exactly once, whether the pump or a caller got to it first). It
// returns the served epoch. Tests drive deterministic delta sequences
// through it; production traffic normally relies on the read path and the
// broadcast pump instead.
func (s *Service) PublishSnapshot() uint64 {
	cur := s.currentSnapshot()
	if s.bcast != nil {
		s.bcast.broadcast(cur)
	}
	return cur.epoch
}

// Epoch returns the currently served snapshot epoch.
func (s *Service) Epoch() uint64 { return s.snap.cur.Load().epoch }

// ReadStats returns the read-path counters as an invariant-consistent
// snapshot (notModified <= serves holds in the returned value).
func (s *Service) ReadStats() api.ReadStats {
	var out api.ReadStats
	out.NotModified = s.read.notModified.Load()
	out.Serves = s.read.serves.Load()
	out.StreamDeltas = s.read.streamDeltas.Load()
	out.StreamFrames = s.read.streamFrames.Load()
	out.StreamDropped = s.read.streamDropped.Load()
	out.StreamResumes = s.read.streamResumes.Load()
	out.Subscribers = s.read.subscribers.Load()
	out.Publishes = s.read.publishes.Load()
	out.Epoch = s.Epoch()
	return out
}

// busCapture is one bus's state, captured under its lock in a single pass so
// every product derived from it observes the same instant.
type busCapture struct {
	id         string
	routeID    string
	route      *roadnet.Route
	tracker    *locate.Tracker
	lastUpdate time.Time
	done       bool
	arc        float64
	arcOK      bool
	speed      float64
	traj       []locate.TrajectoryPoint
}

// captureBuses snapshots every registered bus (per-bus lock held only for
// the field reads; the trajectory is shared with the tracker, which only
// appends to it). The result is sorted by bus ID.
func (s *Service) captureBuses() []busCapture {
	var caps []busCapture
	s.buses.forEach(func(id string, bs *busState) {
		bs.mu.Lock()
		defer bs.mu.Unlock()
		if bs.tracker == nil {
			return
		}
		c := busCapture{
			id:         id,
			routeID:    bs.routeID,
			route:      bs.tracker.Route(),
			tracker:    bs.tracker,
			lastUpdate: bs.lastUpdate,
			done:       bs.done,
			traj:       bs.tracker.TrajectoryView(),
		}
		c.arc, c.arcOK = bs.tracker.Arc()
		c.speed, _ = bs.tracker.Speed()
		caps = append(caps, c)
	})
	sort.Slice(caps, func(i, j int) bool { return caps[i].id < caps[j].id })
	return caps
}

// vehiclesFromCaptures derives the live-vehicle list (the Vehicles filter:
// not finished, not stale, has a fix) from captured bus states. caps must be
// sorted by bus ID; the result preserves that order. Returns nil, not an
// empty slice, when nothing matches — the old lock path's (and the wire
// format's) convention.
func (s *Service) vehiclesFromCaptures(caps []busCapture, now time.Time, routeID string) []api.VehicleStatus {
	var out []api.VehicleStatus
	for _, c := range caps {
		if routeID != "" && c.routeID != routeID {
			continue
		}
		if c.done || now.Sub(c.lastUpdate) > s.cfg.StaleAfter {
			continue
		}
		if !c.arcOK {
			continue
		}
		out = append(out, api.VehicleStatus{
			BusID:   c.id,
			RouteID: c.routeID,
			Arc:     c.arc,
			Pos:     c.route.PointAt(c.arc),
			Speed:   c.speed,
			Updated: c.lastUpdate,
		})
	}
	return out
}

// filterVehicles narrows an already-derived (sorted) vehicle list to one
// route, preserving nil-for-empty.
func filterVehicles(all []api.VehicleStatus, routeID string) []api.VehicleStatus {
	var out []api.VehicleStatus
	for _, v := range all {
		if v.RouteID == routeID {
			out = append(out, v)
		}
	}
	return out
}

// arrivalsForRoute computes the arrival table of one route from its live
// vehicles: one forward sweep per bus (Eq. 9 composed once along the route)
// emits that bus's ETA at every stop ahead of it, so the table costs one
// segment prediction per (bus, segment ahead) rather than one per (bus,
// stop, segment between), and nothing for a bus whose sweep the previous
// publish already made. vehicles is in bus-ID order and so is every cell.
// Every cell's estimates are carved from one backing array sized from the
// sweeps: one allocation per route instead of one per append.
func (s *Service) arrivalsForRoute(route *roadnet.Route, vehicles []api.VehicleStatus, gen uint64) []arrivalCell {
	routeID := route.ID()
	cells := make([]arrivalCell, route.NumStops())
	sweeps := make([][]predict.StopPrediction, len(vehicles))
	counts := make([]int, len(cells))
	total := 0
	for vi, v := range vehicles {
		preds, err := s.sweep(route, v, gen)
		sweeps[vi] = preds
		for _, p := range preds {
			counts[p.StopIndex]++
		}
		total += len(preds)
		if err != nil {
			// The sweep failed on a segment: every stop past the ones it
			// reached reports the error, as a per-stop query would.
			for i := route.NextStopIndex(v.Arc) + len(preds); i < len(cells); i++ {
				if cells[i].err == nil {
					cells[i].err = err
				}
			}
		}
	}
	backing := make([]api.ArrivalEstimate, total)
	for i, n := range counts {
		// An error cell, or one no bus is ahead of, keeps nil estimates.
		if n > 0 && cells[i].err == nil {
			cells[i].ests = backing[:0:n]
		}
		backing = backing[n:]
	}
	for vi, v := range vehicles {
		for _, p := range sweeps[vi] {
			cell := &cells[p.StopIndex]
			if cell.err != nil {
				continue
			}
			cell.ests = append(cell.ests, api.ArrivalEstimate{
				BusID:     v.BusID,
				RouteID:   routeID,
				StopIndex: p.StopIndex,
				StopName:  route.Stop(p.StopIndex).Name,
				ETA:       p.ETA,
			})
		}
	}
	return cells
}

// routeParams are the anomaly-detection parameters of one route: δ and the
// expected-wait sites (stops and signalled intersections) a crawl may not
// be centred on.
type routeParams struct {
	delta   float64
	exclude []float64
}

// anomaliesFromCaptures runs the Fig. 4 anomaly detection over the captured
// trajectories — the same per-bus pipeline as the old path, but every bus is
// observed at the same epoch instead of under one lock acquisition each.
// memo, when not nil, lets a bus reuse the previous publish's detection.
func (s *Service) anomaliesFromCaptures(caps []busCapture, now time.Time, memo *publishMemo) []api.AnomalyReport {
	var out []api.AnomalyReport
	// δ and the expected-wait sites depend on the route, not the bus:
	// derived once per route with a live bus, not once per bus.
	params := make(map[string]routeParams)
	for _, b := range caps {
		if now.Sub(b.lastUpdate) > s.cfg.StaleAfter {
			continue
		}
		route, ok := s.net.Route(b.routeID)
		if !ok {
			continue
		}
		rp, ok := params[b.routeID]
		if !ok {
			rp.delta = trafficmap.DeltaFromHistory(s.routeMeanSpeed(route), s.cfg.FusionWindow, 0)
			for i := 0; i < route.NumStops(); i++ {
				rp.exclude = append(rp.exclude, route.StopArc(i))
			}
			for i := 0; i < route.NumSegments(); i++ {
				if seg, _ := s.net.Graph.Segment(route.Segment(i)); seg != nil && seg.Signal {
					rp.exclude = append(rp.exclude, route.SegmentEndArc(i))
				}
			}
			params[b.routeID] = rp
		}
		for _, a := range memo.detect(b, rp) {
			center := (a.StartArc + a.EndArc) / 2
			out = append(out, api.AnomalyReport{
				BusID:    b.id,
				RouteID:  b.routeID,
				StartArc: a.StartArc,
				EndArc:   a.EndArc,
				Start:    a.Start,
				End:      a.End,
				Pos:      route.PointAt(center),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RouteID != out[j].RouteID {
			return out[i].RouteID < out[j].RouteID
		}
		return out[i].StartArc < out[j].StartArc
	})
	return out
}

// etagOf returns epoch's strong ETag, "wl-<epoch>" in quotes. It allocates
// once for any epoch; fmt would box the epoch, which allocates from 256 on,
// and a publish's allocation count would then depend on its epoch
// (BenchmarkPublish gates that count exactly).
func etagOf(epoch uint64) string {
	var buf [32]byte
	b := append(buf[:0], `"wl-`...)
	b = strconv.AppendUint(b, epoch, 10)
	return string(append(b, '"'))
}

// computeSnapshot builds one immutable epoch: a single capture pass over the
// bus table, then every read product derived from that one capture. It
// renders no JSON; each cell's body waits for its first 200 read.
// Publish-side cost is O(changed buses × segments ahead) for the arrival
// sweeps, O(segments) for the traffic map and O(fixes of changed buses) for
// the anomaly scan; read-side cost is a pointer load, plus one render for
// the first read of a cell in the epoch. Caller holds snap.mu (or, in
// NewService, is the only goroutine).
func (s *Service) computeSnapshot(asOf, epoch uint64, now time.Time) *readSnapshot {
	caps := s.captureBuses()
	routes := s.net.Routes()
	gen := s.store.Generation()

	snap := &readSnapshot{
		epoch:       epoch,
		asOf:        asOf,
		generatedAt: now,
		etag:        etagOf(epoch),

		vehicles:     make(map[string]*vehiclesCell, len(routes)+1),
		arrivals:     make(map[string][]arrivalCell, len(routes)),
		tmaps:        make(map[string]*tmapCell, len(routes)+1),
		trajectories: make(map[string]busTrajectory, len(caps)),
	}

	all := s.vehiclesFromCaptures(caps, now, "")
	snap.vehicles[""] = &vehiclesCell{vs: all}
	for _, rt := range routes {
		vs := filterVehicles(all, rt.ID())
		snap.vehicles[rt.ID()] = &vehiclesCell{vs: vs}
		snap.arrivals[rt.ID()] = s.arrivalsForRoute(rt, vs, gen)
	}

	// Traffic map: whole network plus every route, each segment classified
	// once at the same now.
	allStatuses, routeStatuses := s.tmap.MapWithRoutes(now)
	snap.tmaps[""] = newTmapCell(now, allStatuses)
	for routeID, statuses := range routeStatuses {
		snap.tmaps[routeID] = newTmapCell(now, statuses)
	}

	snap.anomalies = s.anomaliesFromCaptures(caps, now, &s.snap.memo)
	s.snap.memo.advance()

	for _, c := range caps {
		snap.trajectories[c.id] = busTrajectory{routeID: c.routeID, fixes: c.traj}
	}
	return snap
}

func newTmapCell(now time.Time, statuses []trafficmap.SegmentStatus) *tmapCell {
	return &tmapCell{resp: api.TrafficMapResponse{
		GeneratedAt: now,
		Segments:    statuses,
		Strip:       trafficmap.Render(statuses),
	}}
}

// maxAgeSec derives the Cache-Control max-age of a response served from
// snap at time now: the remaining validity of the snapshot's fusion window,
// in whole seconds, floored at zero.
func (snap *readSnapshot) maxAgeSec(now time.Time, window time.Duration) int {
	remain := window - now.Sub(snap.generatedAt)
	if remain <= 0 {
		return 0
	}
	return int(remain / time.Second)
}
