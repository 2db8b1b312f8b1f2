package server

import (
	"errors"
	"fmt"
	"sort"

	"wilocator/internal/api"
	"wilocator/internal/locate"
	"wilocator/internal/predict"
	"wilocator/internal/roadnet"
	"wilocator/internal/trafficmap"
)

// This file is the reference read implementation: every rider-facing product
// computed at call time under the per-bus locks, the way each GET did before
// the epoch snapshot existed, with arrivals predicted by one PredictArrival
// per (bus, stop) pair. Nothing here is served; the snapshot-equivalence
// tests compare the published snapshot against it product by product and
// the read benchmarks use it as the cold-compute baseline.

// get returns the bus's state, or nil if it is unknown.
func (t *busTable) get(busID string) *busState {
	sh := t.shard(busID)
	sh.mu.Lock()
	bs := sh.buses[busID]
	sh.mu.Unlock()
	return bs
}

// RecomputeVehicles walks the live bus table under per-bus locks and derives
// the vehicle list at call time.
func (s *Service) RecomputeVehicles(routeID string) []api.VehicleStatus {
	now := s.cfg.Now()
	var out []api.VehicleStatus
	s.buses.forEach(func(id string, bs *busState) {
		bs.mu.Lock()
		defer bs.mu.Unlock()
		if bs.tracker == nil {
			return
		}
		if routeID != "" && bs.routeID != routeID {
			return
		}
		if bs.done || now.Sub(bs.lastUpdate) > s.cfg.StaleAfter {
			return
		}
		arc, ok := bs.tracker.Arc()
		if !ok {
			return
		}
		speed, _ := bs.tracker.Speed()
		out = append(out, api.VehicleStatus{
			BusID:   id,
			RouteID: bs.routeID,
			Arc:     arc,
			Pos:     bs.tracker.Route().PointAt(arc),
			Speed:   speed,
			Updated: bs.lastUpdate,
		})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].BusID < out[j].BusID })
	return out
}

// RecomputeArrivals is one (route, stop) arrival table predicted over
// RecomputeVehicles at call time.
func (s *Service) RecomputeArrivals(routeID string, stopIdx int) ([]api.ArrivalEstimate, error) {
	route, err := s.checkStop(routeID, stopIdx)
	if err != nil {
		return nil, err
	}
	return s.predictStop(route, routeID, s.RecomputeVehicles(routeID), stopIdx)
}

// predictStop runs the arrival prediction of one (route, stop) over the
// given vehicles, one independent PredictArrival each — the naive loop the
// publisher's forward sweep must stay byte-equal to.
func (s *Service) predictStop(route *roadnet.Route, routeID string, vehicles []api.VehicleStatus, stopIdx int) ([]api.ArrivalEstimate, error) {
	var out []api.ArrivalEstimate
	for _, v := range vehicles {
		eta, err := s.pred.PredictArrival(routeID, v.Arc, v.Updated, stopIdx)
		if err != nil {
			if errors.Is(err, predict.ErrStopBehind) {
				continue
			}
			return nil, err
		}
		out = append(out, api.ArrivalEstimate{
			BusID:     v.BusID,
			RouteID:   routeID,
			StopIndex: stopIdx,
			StopName:  route.Stops()[stopIdx].Name,
			ETA:       eta,
		})
	}
	return out, nil
}

// RecomputeTrafficMap classifies the network (or one route) at call time.
func (s *Service) RecomputeTrafficMap(routeID string) (api.TrafficMapResponse, error) {
	now := s.cfg.Now()
	var statuses []trafficmap.SegmentStatus
	if routeID == "" {
		statuses = s.tmap.Map(now)
	} else {
		var err error
		statuses, err = s.tmap.MapForRoute(routeID, now)
		if err != nil {
			return api.TrafficMapResponse{}, err
		}
	}
	return api.TrafficMapResponse{
		GeneratedAt: now,
		Segments:    statuses,
		Strip:       trafficmap.Render(statuses),
	}, nil
}

// RecomputeTrajectory reads the bus's tracker under its lock at call time.
func (s *Service) RecomputeTrajectory(busID string) (api.TrajectoryResponse, error) {
	bs := s.buses.get(busID)
	if bs == nil {
		return api.TrajectoryResponse{}, fmt.Errorf("server: unknown bus %q", busID)
	}
	bs.mu.Lock()
	registered := bs.tracker != nil
	routeID := bs.routeID
	var traj []locate.TrajectoryPoint
	if registered {
		traj = bs.tracker.Trajectory()
	}
	bs.mu.Unlock()
	if !registered {
		return api.TrajectoryResponse{}, fmt.Errorf("server: unknown bus %q", busID)
	}
	out := api.TrajectoryResponse{BusID: busID, RouteID: routeID}
	for _, p := range traj {
		ll := s.proj.ToLatLng(p.Pos)
		out.Fixes = append(out.Fixes, api.TrajectoryFix{Lat: ll.Lat, Lng: ll.Lng, Time: p.Time, Arc: p.Arc})
	}
	return out, nil
}

// RecomputeAnomalies captures each live bus under its own lock at call time
// and runs the detection over the result.
func (s *Service) RecomputeAnomalies(routeID string) ([]api.AnomalyReport, error) {
	if routeID != "" {
		if _, ok := s.net.Route(routeID); !ok {
			return nil, fmt.Errorf("server: unknown route %q", routeID)
		}
	}
	now := s.cfg.Now()
	var caps []busCapture
	s.buses.forEach(func(id string, bs *busState) {
		bs.mu.Lock()
		defer bs.mu.Unlock()
		if bs.tracker == nil {
			return
		}
		if routeID != "" && bs.routeID != routeID {
			return
		}
		caps = append(caps, busCapture{
			id:         id,
			routeID:    bs.routeID,
			lastUpdate: bs.lastUpdate,
			traj:       bs.tracker.Trajectory(),
		})
	})
	sort.Slice(caps, func(i, j int) bool { return caps[i].id < caps[j].id })
	return s.anomaliesFromCaptures(caps, now), nil
}
