package trafficmap

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"wilocator/internal/geo"
	"wilocator/internal/locate"
	"wilocator/internal/roadnet"
	"wilocator/internal/traveltime"
)

func midday(min int) time.Time {
	return time.Date(2016, 3, 7, 13, 0, 0, 0, time.UTC).Add(time.Duration(min) * time.Minute)
}

// mapNet builds a 3-segment route.
func mapNet(t *testing.T) (*roadnet.Network, *roadnet.Route) {
	t.Helper()
	g := roadnet.NewGraph()
	nodes := make([]roadnet.NodeID, 4)
	for i := range nodes {
		nodes[i] = g.AddNode(geo.Pt(float64(i)*200, 0), "n")
	}
	segs := make([]roadnet.SegmentID, 3)
	for i := 0; i < 3; i++ {
		id, err := g.AddSegment(nodes[i], nodes[i+1], "s", 10, false)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = id
	}
	route, err := roadnet.NewRoute(g, "r", "r", roadnet.ClassOrdinary, segs)
	if err != nil {
		t.Fatal(err)
	}
	if err := route.PlaceStopsEvenly(2); err != nil {
		t.Fatal(err)
	}
	net := roadnet.NewNetwork(g)
	if err := net.AddRoute(route); err != nil {
		t.Fatal(err)
	}
	return net, route
}

// seedHistory adds n historical traversals with the given mean and +-spread.
func seedHistory(t *testing.T, s *traveltime.Store, seg roadnet.SegmentID, route string, n int, mean, spread float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		secs := mean + spread*float64(i%3-1) // mean-spread, mean, mean+spread
		// Keep history inside the midday (10-18h) slot but outside the
		// recent-evidence window.
		enter := midday(-150 + i)
		err := s.Add(traveltime.Record{
			Seg: seg, RouteID: route, Enter: enter,
			Exit: enter.Add(time.Duration(secs * float64(time.Second))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestConditionStrings(t *testing.T) {
	tests := []struct {
		c Condition
		s string
		r rune
	}{
		{Normal, "normal", '-'},
		{Slow, "slow", 's'},
		{VerySlow, "very-slow", 'S'},
		{Unknown, "unknown", '?'},
	}
	for _, tt := range tests {
		if tt.c.String() != tt.s || tt.c.Rune() != tt.r {
			t.Errorf("%d: %q %q", int(tt.c), tt.c.String(), string(tt.c.Rune()))
		}
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	net, _ := mapNet(t)
	store := traveltime.NewStore(traveltime.PaperPlan())
	if _, err := NewGenerator(nil, store, Config{}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := NewAgencyStyle(net, nil, Config{}); err == nil {
		t.Error("nil store accepted")
	}
}

func TestClassifyNormalSlowVerySlow(t *testing.T) {
	net, route := mapNet(t)
	store := traveltime.NewStore(traveltime.PaperPlan())
	seg := route.Segments()[0]
	seedHistory(t, store, seg, "r", 30, 60, 5) // sigma ~ 4.1

	g, err := NewGenerator(net, store, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Fresh traversal at the historical mean: normal.
	add := func(secs float64, minAgo int) {
		t.Helper()
		enter := midday(-minAgo)
		err := store.Add(traveltime.Record{
			Seg: seg, RouteID: "r", Enter: enter,
			Exit: enter.Add(time.Duration(secs * float64(time.Second))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	add(60, 5)
	st := g.Classify(seg, midday(0))
	if st.Condition != Normal || st.Inferred {
		t.Errorf("normal case: %+v", st)
	}

	// A crawl far beyond the historical spread: very slow.
	add(200, 3)
	add(200, 2)
	add(200, 1)
	st = g.Classify(seg, midday(0))
	if st.Condition != VerySlow {
		t.Errorf("crawl case: %+v", st)
	}
	if st.Z >= DefaultVerySlowZ {
		t.Errorf("z = %v, want < %v", st.Z, DefaultVerySlowZ)
	}
}

func TestClassifyInferenceVsUnconfirmed(t *testing.T) {
	net, route := mapNet(t)
	store := traveltime.NewStore(traveltime.PaperPlan())
	segFresh := route.Segments()[0]
	segStale := route.Segments()[1]
	seedHistory(t, store, segFresh, "r", 30, 60, 5)
	seedHistory(t, store, segStale, "r", 30, 60, 5)
	// Only segFresh has a recent traversal.
	err := store.Add(traveltime.Record{
		Seg: segFresh, RouteID: "r", Enter: midday(-4),
		Exit: midday(-4).Add(60 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}

	wil, err := NewGenerator(net, store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := NewAgencyStyle(net, store, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// WiLocator marks everything.
	wm := wil.Map(midday(0))
	if cov := Coverage(wm); cov != 1 {
		t.Errorf("wilocator coverage = %v, want 1", cov)
	}
	for _, st := range wm {
		if st.Seg == segStale && !st.Inferred {
			t.Error("stale segment not flagged as inferred")
		}
	}

	// The agency-style map leaves stale segments unconfirmed.
	am := ag.Map(midday(0))
	if cov := Coverage(am); cov >= 1 {
		t.Errorf("agency coverage = %v, want < 1", cov)
	}
	found := false
	for _, st := range am {
		if st.Seg == segStale {
			found = true
			if st.Condition != Unknown {
				t.Errorf("stale segment condition = %v, want unknown", st.Condition)
			}
		}
	}
	if !found {
		t.Fatal("stale segment missing from map")
	}

	// Rendering shows the coverage difference.
	if !strings.ContainsRune(Render(am), '?') {
		t.Error("agency render has no unconfirmed glyph")
	}
	if strings.ContainsRune(Render(wm), '?') {
		t.Error("wilocator render has unconfirmed glyph")
	}
}

func TestMapForRoute(t *testing.T) {
	net, route := mapNet(t)
	store := traveltime.NewStore(traveltime.PaperPlan())
	g, err := NewGenerator(net, store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := g.MapForRoute("r", midday(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != route.NumSegments() {
		t.Errorf("route map has %d entries", len(sts))
	}
	if _, err := g.MapForRoute("nope", midday(0)); err == nil {
		t.Error("unknown route accepted")
	}
}

func trajFrom(arcs []float64, stepSec int) []locate.TrajectoryPoint {
	t0 := midday(0)
	out := make([]locate.TrajectoryPoint, len(arcs))
	for i, a := range arcs {
		out[i] = locate.TrajectoryPoint{Time: t0.Add(time.Duration(i*stepSec) * time.Second), Arc: a}
	}
	return out
}

func TestDetectAnomalies(t *testing.T) {
	// Bus advances 80 m per scan, then crawls (5 m per scan) around arc
	// 400, then resumes.
	arcs := []float64{0, 80, 160, 240, 320, 400, 405, 410, 415, 420, 500, 580}
	traj := trajFrom(arcs, 10)
	anoms := DetectAnomalies(traj, 20, 3, nil, 0)
	if len(anoms) != 1 {
		t.Fatalf("anomalies = %+v", anoms)
	}
	a := anoms[0]
	if a.StartArc != 400 || a.EndArc != 420 {
		t.Errorf("anomaly span = [%v, %v], want [400, 420]", a.StartArc, a.EndArc)
	}
	if !a.End.After(a.Start) {
		t.Error("anomaly times wrong")
	}
}

func TestDetectAnomaliesExcludesStops(t *testing.T) {
	arcs := []float64{0, 80, 160, 165, 170, 175, 240, 320}
	traj := trajFrom(arcs, 10)
	// The crawl is centred near arc 167.5 — a bus stop there explains it.
	anoms := DetectAnomalies(traj, 20, 3, []float64{170}, 25)
	if len(anoms) != 0 {
		t.Errorf("stop dwell flagged as anomaly: %+v", anoms)
	}
	// Without the exclusion it is detected.
	if got := DetectAnomalies(traj, 20, 3, nil, 0); len(got) != 1 {
		t.Errorf("anomaly not found without exclusions: %+v", got)
	}
}

func TestDetectAnomaliesMinPoints(t *testing.T) {
	arcs := []float64{0, 80, 85, 160, 240}
	traj := trajFrom(arcs, 10)
	if got := DetectAnomalies(traj, 20, 3, nil, 0); len(got) != 0 {
		t.Errorf("2-point blip flagged: %+v", got)
	}
	// Trailing run that reaches the end of the trajectory is flushed.
	tail := trajFrom([]float64{0, 80, 160, 165, 170, 175}, 10)
	if got := DetectAnomalies(tail, 20, 3, nil, 0); len(got) != 1 {
		t.Errorf("trailing anomaly missed: %+v", got)
	}
	if got := DetectAnomalies(nil, 20, 3, nil, 0); len(got) != 0 {
		t.Error("empty trajectory produced anomalies")
	}
}

func TestDeltaFromHistory(t *testing.T) {
	d := DeltaFromHistory(8, 10*time.Second, 0.35)
	if math.Abs(d-28) > 1e-9 {
		t.Errorf("delta = %v, want 28", d)
	}
	if d := DeltaFromHistory(8, 10*time.Second, 0); math.Abs(d-28) > 1e-9 {
		t.Errorf("default frac delta = %v, want 28", d)
	}
}

func TestCoverageEmpty(t *testing.T) {
	if Coverage(nil) != 0 {
		t.Error("empty coverage != 0")
	}
}

// TestMapWithRoutesEqualsSeparatePasses pins the single-pass map to the two
// it replaces, on a generated city whose routes overlap, whose route order
// is not segment-ID order and which has streets no route uses: the network
// view equals Map, each route view equals MapForRoute, and every segment is
// classified once.
func TestMapWithRoutesEqualsSeparatePasses(t *testing.T) {
	net, err := roadnet.BuildCity(roadnet.CitySpec{Form: roadnet.CityGrid, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	store := traveltime.NewStore(traveltime.PaperPlan())
	for _, route := range net.Routes() {
		for i, seg := range route.Segments() {
			// History from one route per segment: Store.ResidualStats sums
			// a shared segment's routes in map order, so with two of them
			// even two Classify calls can differ in z's last bit.
			if i%3 == 0 || net.RoutesOnSegment(seg)[0] != route.ID() {
				continue
			}
			seedHistory(t, store, seg, route.ID(), 12, 40, 6)
			if i%2 == 0 {
				// Fresh evidence, slower than usual on every other segment.
				enter := midday(-5)
				rec := traveltime.Record{Seg: seg, RouteID: route.ID(), Enter: enter,
					Exit: enter.Add(time.Duration(40+i%5*8) * time.Second)}
				if err := store.Add(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g, err := NewGenerator(net, store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	at := midday(0)
	wantAll := g.Map(at)
	before := g.Counts()
	all, byRoute := g.MapWithRoutes(at)
	after := g.Counts()
	if !reflect.DeepEqual(all, wantAll) {
		t.Errorf("network view differs from Map")
	}
	classified := func(c ClassifyCounts) uint64 { return c.Unknown + c.Normal + c.Slow + c.VerySlow }
	if got := classified(after) - classified(before); got != uint64(len(wantAll)) {
		t.Errorf("MapWithRoutes classified %d segments, want one per mapped segment (%d)", got, len(wantAll))
	}
	if len(byRoute) != len(net.Routes()) {
		t.Fatalf("%d route views for %d routes", len(byRoute), len(net.Routes()))
	}
	for _, route := range net.Routes() {
		want, err := g.MapForRoute(route.ID(), at)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(byRoute[route.ID()], want) {
			t.Errorf("route %s view differs from MapForRoute", route.ID())
		}
	}
}
