package predict

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"wilocator/internal/geo"
	"wilocator/internal/roadnet"
	"wilocator/internal/traveltime"
	"wilocator/internal/xrand"
)

// TestETAMonotoneInStopIndex: from a fixed position and time, predicted
// arrivals are non-decreasing in stop index — a rider can never "arrive
// earlier" at a farther stop.
func TestETAMonotoneInStopIndex(t *testing.T) {
	net, route := lineNet(t, 8)
	store := traveltime.NewStore(traveltime.PaperPlan())
	for i, seg := range route.Segments() {
		for k := 0; k < 3; k++ {
			addRec(t, store, seg, "r", midday(-100+k+i), 30+float64(i%4)*10)
		}
	}
	w, err := NewWiLocator(net, store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(rawArc uint16, rawMin uint8) bool {
		fromArc := float64(rawArc) / 65535 * route.Length() * 0.9
		at := midday(int(rawMin % 120))
		prev := time.Time{}
		for m := route.NextStopIndex(fromArc); m < route.NumStops(); m++ {
			eta, err := w.PredictArrival("r", fromArc, at, m)
			if err != nil {
				return false
			}
			if eta.Before(at) {
				return false
			}
			if !prev.IsZero() && eta.Before(prev) {
				return false
			}
			prev = eta
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestETAMonotoneInPosition: moving the bus forward never pushes the ETA at
// a fixed stop later under a time-invariant store (closer bus, earlier or
// equal arrival).
func TestETAMonotoneInPosition(t *testing.T) {
	net, route := lineNet(t, 6)
	store := traveltime.NewStore(traveltime.PaperPlan())
	for i, seg := range route.Segments() {
		addRec(t, store, seg, "r", midday(-90+i), 45)
	}
	a, err := NewAgency(net, store, Config{}) // recency-free: pure composition
	if err != nil {
		t.Fatal(err)
	}
	target := route.NumStops() - 1
	at := midday(0)
	prevETA := time.Time{}
	for arc := 0.0; arc < route.StopArc(target); arc += 37 {
		eta, err := a.PredictArrival("r", arc, at, target)
		if err != nil {
			t.Fatal(err)
		}
		if !prevETA.IsZero() && eta.After(prevETA.Add(time.Millisecond)) {
			t.Fatalf("ETA increased as the bus advanced: %v -> %v at arc %v", prevETA, eta, arc)
		}
		prevETA = eta
	}
}

// TestSegmentTimePositive: predictions are always strictly positive and at
// least free flow, whatever the store contents.
func TestSegmentTimePositive(t *testing.T) {
	net, route := lineNet(t, 3)
	store := traveltime.NewStore(traveltime.PaperPlan())
	w, err := NewWiLocator(net, store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(rawMin uint16, secs uint8) bool {
		at := midday(int(rawMin % 1440))
		seg := route.Segments()[int(rawMin)%route.NumSegments()]
		if secs > 0 {
			addRec(t, store, seg, "r", at.Add(-30*time.Minute), float64(secs))
		}
		got, err := w.SegmentTime(seg, "r", at)
		return err == nil && got > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// unevenNet builds a route of n segments of random length with stops that
// do not line up with the segment grid, plus one stop exactly on a segment
// end and one at the route end.
func unevenNet(t *testing.T, rng *xrand.Rand, n int) (*roadnet.Network, *roadnet.Route) {
	t.Helper()
	g := roadnet.NewGraph()
	x := 0.0
	prev := g.AddNode(geo.Pt(x, 0), "n")
	segs := make([]roadnet.SegmentID, n)
	for i := range segs {
		x += rng.Range(40, 320)
		next := g.AddNode(geo.Pt(x, 0), "n")
		id, err := g.AddSegment(prev, next, "s", rng.Range(8, 16), false)
		if err != nil {
			t.Fatal(err)
		}
		segs[i], prev = id, next
	}
	route, err := roadnet.NewRoute(g, "r", "uneven", roadnet.ClassOrdinary, segs)
	if err != nil {
		t.Fatal(err)
	}
	arcs := []float64{0, route.SegmentEndArc(n / 2), route.Length()}
	for i := 0; i < n; i++ {
		arcs = append(arcs, rng.Range(0, route.Length()))
	}
	sort.Float64s(arcs)
	for _, arc := range arcs {
		if err := route.AddStop("s", arc); err != nil {
			t.Fatal(err)
		}
	}
	net := roadnet.NewNetwork(g)
	if err := net.AddRoute(route); err != nil {
		t.Fatal(err)
	}
	return net, route
}

// TestSweepEqualsPerStopPrediction pins PredictAllStops to PredictArrival:
// for seeded random routes, positions and clocks — including a bus exactly
// on a stop, exactly on a segment end, past the last stop, and departures
// just before the 08h slot boundary so the virtual clock changes slot
// mid-route — the sweep's (stop, ETA) list equals the per-stop predictions
// with time.Time equality.
func TestSweepEqualsPerStopPrediction(t *testing.T) {
	rng := xrand.New(20161)
	pre := time.Date(2016, 3, 7, 7, 0, 0, 0, time.UTC)
	rush := time.Date(2016, 3, 7, 8, 0, 0, 0, time.UTC)
	for trial := 0; trial < 40; trial++ {
		net, route := unevenNet(t, rng, 3+rng.Intn(10))
		store := traveltime.NewStore(traveltime.PaperPlan())
		for i, seg := range route.Segments() {
			if i%4 == 3 {
				continue // leave some segments on the free-flow fallback
			}
			for k := 0; k < 4; k++ {
				addRec(t, store, seg, "r", pre.Add(time.Duration(rng.Intn(55))*time.Minute), rng.Range(20, 60))
				addRec(t, store, seg, "r", rush.Add(time.Duration(rng.Intn(20))*time.Minute), rng.Range(90, 240))
			}
		}
		w, err := NewWiLocator(net, store, Config{})
		if err != nil {
			t.Fatal(err)
		}

		arcs := []float64{
			0, route.Length(), route.Length() + 5,
			route.StopArc(route.NumStops() / 2),
			route.SegmentEndArc(route.NumSegments() / 3),
		}
		for i := 0; i < 12; i++ {
			arcs = append(arcs, rng.Range(0, route.Length()))
		}
		for _, arc := range arcs {
			at := rush.Add(-time.Duration(rng.Intn(600)) * time.Second).Add(time.Duration(rng.Intn(1e9)))
			got, err := w.PredictAllStops("r", arc, at)
			if err != nil {
				t.Fatal(err)
			}
			first := route.NextStopIndex(arc)
			if len(got) != route.NumStops()-first {
				t.Fatalf("trial %d arc %v: %d predictions, want %d", trial, arc, len(got), route.NumStops()-first)
			}
			for i, p := range got {
				want, err := w.PredictArrival("r", arc, at, first+i)
				if err != nil {
					t.Fatal(err)
				}
				if p.StopIndex != first+i || !p.ETA.Equal(want) || p.ETA != want {
					t.Fatalf("trial %d arc %v at %v: sweep stop %d ETA %v, PredictArrival(%d) = %v",
						trial, arc, at, p.StopIndex, p.ETA, first+i, want)
				}
			}
		}
	}
}
