package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/geo"
	"wilocator/internal/predict"
	"wilocator/internal/roadnet"
	"wilocator/internal/sensing"
	"wilocator/internal/svd"
	"wilocator/internal/traveltime"
	"wilocator/internal/wifi"
	"wilocator/internal/xrand"
)

// memoWorld is a two-route corridor small enough to publish after every
// step of a long interleaving: five 300 m segments in a row, route "a" over
// all five and route "b" over the middle three, so a record on a shared
// segment moves both routes' predictions (the cross-route term of Eq. 8).
// Buses are driven window by window along scripted arcs instead of along
// simulated trips, so a test decides exactly which buses move and when.
type memoWorld struct {
	*world
	h     http.Handler
	buses []*memoBus
	at    time.Time // scan time of the next fusion window
}

type memoBus struct {
	id     string
	route  *roadnet.Route
	arc    float64
	phones []*sensing.Phone
}

// memoStaleAfter is short against the test's length, so buses go stale,
// are evicted and re-register on a new tracker many times in one run.
const memoStaleAfter = 2 * time.Minute

func newMemoWorld(t testing.TB, seed uint64, start time.Time) *memoWorld {
	t.Helper()
	g := roadnet.NewGraph()
	var nodes []roadnet.NodeID
	for i := 0; i <= 5; i++ {
		nodes = append(nodes, g.AddNode(geo.Pt(float64(i)*300, 0), fmt.Sprintf("n%d", i)))
	}
	var segs []roadnet.SegmentID
	for i := 0; i < 5; i++ {
		id, err := g.AddSegment(nodes[i], nodes[i+1], fmt.Sprintf("s%d", i), 30/3.6, false)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, id)
	}
	net := roadnet.NewNetwork(g)
	for _, rs := range []struct {
		id    string
		segs  []roadnet.SegmentID
		stops int
	}{{"a", segs, 6}, {"b", segs[1:4], 4}} {
		r, err := roadnet.NewRoute(g, rs.id, "route "+rs.id, roadnet.ClassOrdinary, rs.segs)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.PlaceStopsEvenly(rs.stops); err != nil {
			t.Fatal(err)
		}
		if err := net.AddRoute(r); err != nil {
			t.Fatal(err)
		}
	}
	dep, err := wifi.Deploy(net, wifi.DefaultDeploySpec(), xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	dia, err := svd.Build(net, dep, svd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	store := traveltime.NewStore(traveltime.PaperPlan())
	w := &world{net: net, dep: dep, dia: dia, store: store, route: net.Routes()[0]}
	w.setClock(start)
	svc, err := NewService(dia, store, Config{Now: w.now, StaleAfter: memoStaleAfter})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	w.svc = svc
	return &memoWorld{world: w, h: Handler(svc), at: start}
}

// addBus adds a bus at arc on route; it reports from the next window it
// moves in.
func (mw *memoWorld) addBus(t testing.TB, id, routeID string, arc float64, seed uint64) *memoBus {
	t.Helper()
	route, ok := mw.net.Route(routeID)
	if !ok {
		t.Fatalf("no route %q", routeID)
	}
	phones, err := sensing.NewRiderPhones(id, 3, mw.dep, sensing.PhoneConfig{ReportLoss: -1}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	b := &memoBus{id: id, route: route, arc: arc, phones: phones}
	mw.buses = append(mw.buses, b)
	return b
}

// report ingests one scan per phone of b at its current arc, dated at the
// current window.
func (mw *memoWorld) report(t testing.TB, b *memoBus) {
	t.Helper()
	pos := b.route.PointAt(b.arc)
	for _, p := range b.phones {
		if scan, ok := p.ScanAt(pos, mw.at); ok {
			if _, err := mw.svc.Ingest(api.Report{BusID: b.id, RouteID: b.route.ID(), PhoneID: p.ID(), Scan: scan}); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
		}
	}
}

// tick ends the current window: the frozen clock moves to it and the next
// window begins one fusion window later.
func (mw *memoWorld) tick() {
	mw.setClock(mw.at)
	mw.at = mw.at.Add(sensing.DefaultScanPeriod)
}

// move advances each of moved by step metres (a bus past its route's end
// starts a new trip near the start) and reports it, then ends the window.
// Reporting a window flushes the bus's previous one into a fix.
func (mw *memoWorld) move(t testing.TB, step float64, moved ...*memoBus) {
	t.Helper()
	for _, b := range moved {
		b.arc += step
		if b.arc > b.route.Length()-5 {
			b.arc = 20
		}
		mw.report(t, b)
	}
	mw.tick()
}

// addRecord writes one travel-time record on seg behind the service's back,
// the way System.AddTravelTime does, and invalidates the read snapshot.
func (mw *memoWorld) addRecord(t testing.TB, seg roadnet.SegmentID, routeID string, secs float64) {
	t.Helper()
	exit := mw.now().Add(-time.Minute)
	rec := traveltime.Record{Seg: seg, RouteID: routeID, Enter: exit.Add(-time.Duration(secs * float64(time.Second))), Exit: exit}
	if err := mw.store.Add(rec); err != nil {
		t.Fatal(err)
	}
	mw.svc.InvalidateReadSnapshot()
}

// get answers one GET through the handler (publishing when the snapshot is
// stale, as a rider's poll does).
func (mw *memoWorld) get(target string) (int, []byte) {
	rec := httptest.NewRecorder()
	mw.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec.Code, rec.Body.Bytes()
}

// check publishes and holds every arrival and anomaly body of the epoch
// against marshalBody of the call-time reference computation.
func (mw *memoWorld) check(t testing.TB, step string) {
	t.Helper()
	expect := func(target string, code int, got []byte, wantCode int, want []byte) {
		t.Helper()
		if code != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("%s: GET %s: status %d body\n%s\nwant %d\n%s", step, target, code, got, wantCode, want)
		}
	}
	for _, rt := range mw.net.Routes() {
		for stop := 0; stop < rt.NumStops(); stop++ {
			target := fmt.Sprintf("%s?route=%s&stop=%d", api.PathArrivals, rt.ID(), stop)
			code, got := mw.get(target)
			ref, err := mw.svc.RecomputeArrivals(rt.ID(), stop)
			if err != nil {
				expect(target, code, got, http.StatusBadRequest, marshalBody(api.Error{Message: err.Error()}))
				continue
			}
			expect(target, code, got, http.StatusOK, marshalBody(ref))
		}
	}
	for _, routeID := range []string{"", "a", "b"} {
		target := api.PathAnomalies + "?route=" + routeID
		code, got := mw.get(target)
		ref, err := mw.svc.RecomputeAnomalies(routeID)
		if err != nil {
			t.Fatal(err)
		}
		expect(target, code, got, http.StatusOK, marshalBody(ref))
	}
}

// liveAhead returns, for every live vehicle, the segments from the one it is
// on to the end of its route (the segments its arrival sweep reads).
func (mw *memoWorld) liveAhead() map[string][]roadnet.SegmentID {
	out := make(map[string][]roadnet.SegmentID)
	for _, v := range mw.svc.RecomputeVehicles("") {
		route, _ := mw.net.Route(v.RouteID)
		idx, _, _ := route.SegmentAt(v.Arc)
		out[v.BusID] = route.Segments()[idx:]
	}
	return out
}

// crossRegistration re-registers bus z on a new tracker whose trajectory has
// exactly as many fixes as the one the previous publish scanned, without a
// publish in between — the case where a fix count alone would wrongly reuse
// the old tracker's anomalies. The old trip ends in a crawl away from every
// stop, so its anomaly list is not empty; the new trip drives steadily.
func (mw *memoWorld) crossRegistration(t testing.TB, z *memoBus) {
	t.Helper()
	// Let every bus go stale, then register z afresh mid-gap on segment 1
	// and hold it there: a crawl the anomaly scan reports.
	mw.at = mw.at.Add(memoStaleAfter + sensing.DefaultScanPeriod)
	z.arc = z.route.SegmentStartArc(1) + 150
	for i := 0; i < 8; i++ {
		mw.move(t, 0, z)
	}
	mw.check(t, "crawl before re-registration")
	old := mw.svc.snap.cur.Load()
	fixes := len(old.trajectories[z.id].fixes)
	crawled := 0
	for _, a := range old.anomalies {
		if a.BusID == z.id {
			crawled++
		}
	}
	if crawled == 0 {
		t.Fatalf("the crawl of %s (%d fixes) produced no anomaly", z.id, fixes)
	}

	// Stale again, then a new trip of exactly fixes fixes on a new tracker.
	mw.at = mw.at.Add(memoStaleAfter + sensing.DefaultScanPeriod)
	z.arc = z.route.SegmentStartArc(2) + 10
	bs := mw.svc.buses.get(z.id)
	for n, windows := 0, 0; n < fixes; windows++ {
		if windows == 4*fixes {
			t.Fatalf("%s reached %d of %d fixes in %d windows", z.id, n, fixes, windows)
		}
		mw.move(t, 35, z)
		bs.mu.Lock()
		n = len(bs.tracker.TrajectoryView())
		bs.mu.Unlock()
	}
	mw.check(t, fmt.Sprintf("re-registered with %d fixes", fixes))
}

// TestSnapshotSweepMemoMatchesRecompute replays a seeded interleaving of
// every way the inputs of a bus's arrival sweep and anomaly scan can change
// — or stay put while something else changes — and publishes after each
// step: ingest moving some buses (and so crossing segments and adding
// records), a travel-time record ahead of an unmoved bus and one behind
// it, a store reload from an older snapshot, a frozen-clock advance (one of
// them across the 10:00 PaperPlan slot boundary), eviction, and the
// re-registration of a bus ID on a new tracker. Every arrival and anomaly
// body must stay byte-equal to the call-time reference.
func TestSnapshotSweepMemoMatchesRecompute(t *testing.T) {
	start := time.Date(2016, 3, 7, 9, 56, 0, 0, time.UTC)
	boundary := time.Date(2016, 3, 7, 10, 0, 0, 0, time.UTC)
	mw := newMemoWorld(t, 71, start)
	rng := xrand.New(72)
	for i := 0; i < 6; i++ {
		routeID := []string{"a", "b"}[i%2]
		mw.addBus(t, fmt.Sprintf("bus-%d", i), routeID, 30+float64(i)*90, 720+uint64(i)*10)
	}
	// Warm up: everyone reports for a few windows.
	for i := 0; i < 4; i++ {
		mw.move(t, 60, mw.buses...)
	}
	mw.check(t, "warm-up")
	var saved bytes.Buffer
	if _, err := mw.store.WriteTo(&saved); err != nil {
		t.Fatal(err)
	}

	const (
		opMove = iota
		opAhead
		opBehind
		opLoad
		opClock
		opEvict
		opReregister
		numOps
	)
	counts := make([]int, numOps)
	crossed := false
	for step := 0; step < 140; step++ {
		op := rng.Intn(opReregister)
		if step == 100 {
			// Once, late: it lets every bus go stale twice.
			op = opReregister
		}
		// The clock crosses the slot boundary in a clock-only advance, so
		// unmoved buses keep a pre-boundary update.
		if (op == opMove || op == opClock) && mw.now().Before(boundary) && !mw.at.Before(boundary) {
			op = opClock
			crossed = true
		}
		name := fmt.Sprintf("step %d", step)
		switch op {
		case opMove:
			var moved []*memoBus
			for _, b := range mw.buses {
				if rng.Bool(0.4) {
					moved = append(moved, b)
				}
			}
			mw.move(t, rng.Range(20, 90), moved...)
			name += fmt.Sprintf(": %d buses moved", len(moved))
		case opAhead, opBehind:
			ahead := mw.liveAhead()
			var ids []string
			for _, v := range mw.svc.RecomputeVehicles("") {
				ids = append(ids, v.BusID)
			}
			if len(ids) == 0 {
				op = opMove
				mw.move(t, 40, mw.buses...)
				name += ": nobody live, all moved"
				break
			}
			id := ids[rng.Intn(len(ids))]
			isAhead := make(map[roadnet.SegmentID]bool)
			for _, seg := range ahead[id] {
				isAhead[seg] = true
			}
			var cands []roadnet.SegmentID
			for _, seg := range mw.net.Routes()[0].Segments() {
				if isAhead[seg] == (op == opAhead) {
					cands = append(cands, seg)
				}
			}
			if len(cands) == 0 {
				name += ": no candidate segment"
				break
			}
			seg := cands[rng.Intn(len(cands))]
			routeID := []string{"a", "b"}[rng.Intn(2)]
			mw.addRecord(t, seg, routeID, rng.Range(25, 80))
			where := map[bool]string{true: "ahead of", false: "behind"}[op == opAhead]
			name += fmt.Sprintf(": record on segment %d (route %s) %s %s", seg, routeID, where, id)
		case opLoad:
			if _, err := mw.store.ReadFrom(bytes.NewReader(saved.Bytes())); err != nil {
				t.Fatal(err)
			}
			mw.svc.InvalidateReadSnapshot()
			name += ": store reloaded"
		case opClock:
			mw.tick()
			name += ": clock to " + mw.now().Format("15:04:05")
		case opEvict:
			name += fmt.Sprintf(": %d evicted", mw.svc.EvictStale())
		case opReregister:
			mw.crossRegistration(t, mw.buses[rng.Intn(len(mw.buses))])
			name += ": cross-registration"
		}
		counts[op]++
		mw.check(t, name)
	}
	if !crossed {
		t.Errorf("the clock never crossed %v", boundary)
	}
	for op, n := range counts {
		if n == 0 {
			t.Errorf("operation %d never ran", op)
		}
	}
}

// TestSnapshotSweepMemoReusesUnmovedBuses counts, through predict.Metrics,
// the segment predictions a publish computes: none when nothing moved, none
// after a record on a segment behind every live bus, and after a record on
// a segment ahead of some buses exactly the fresh sweeps of those buses.
func TestSnapshotSweepMemoReusesUnmovedBuses(t *testing.T) {
	mw := newMemoWorld(t, 73, time.Date(2016, 3, 7, 13, 0, 0, 0, time.UTC))
	buses := []*memoBus{
		mw.addBus(t, "a-early", "a", 330, 730),
		mw.addBus(t, "a-late", "a", 1330, 740),
		mw.addBus(t, "b-mid", "b", 640, 750),
	}
	for i := 0; i < 4; i++ {
		mw.move(t, 10, buses...)
	}
	pm := &predict.Metrics{}
	mw.svc.pred.SetMetrics(pm)
	segTimes := func() uint64 {
		return pm.HistoricalMean.Load() + pm.SegmentMeanFallback.Load() + pm.FreeFlowFallback.Load()
	}
	// publish publishes one epoch and returns the segment predictions it
	// computed; the bodies it serves are then held against the reference
	// (whose own predictions are not counted).
	publish := func(step string) uint64 {
		t.Helper()
		mw.svc.InvalidateReadSnapshot()
		before, epoch := segTimes(), mw.svc.Epoch()
		if got := mw.svc.PublishSnapshot(); got != epoch+1 {
			t.Fatalf("%s: epoch %d -> %d, want one publish", step, epoch, got)
		}
		n := segTimes() - before
		mw.check(t, step)
		return n
	}
	if n := publish("first"); n == 0 {
		t.Fatal("the first publish computed no segment prediction")
	}
	if n := publish("nothing changed"); n != 0 {
		t.Errorf("a publish with nothing changed computed %d segment predictions, want 0", n)
	}

	ahead := mw.liveAhead()
	if len(ahead) != len(buses) {
		t.Fatalf("%d of %d buses live", len(ahead), len(buses))
	}
	// whose lists the live buses with seg among their remaining segments.
	whose := func(seg roadnet.SegmentID) []string {
		var ids []string
		for _, b := range buses {
			for _, s := range ahead[b.id] {
				if s == seg {
					ids = append(ids, b.id)
					break
				}
			}
		}
		return ids
	}
	segs := mw.net.Routes()[0].Segments()
	behind, some := roadnet.SegmentID(-1), roadnet.SegmentID(-1)
	for _, seg := range segs {
		switch ids := whose(seg); {
		case len(ids) == 0 && behind < 0:
			behind = seg
		case len(ids) > 0 && len(ids) < len(buses) && some < 0:
			some = seg
		}
	}
	if behind < 0 || some < 0 {
		t.Fatalf("bus placement gives no segment behind every bus (%d) or ahead of only some (%d): %v", behind, some, ahead)
	}

	mw.addRecord(t, behind, "a", 45)
	if n := publish("record behind every bus"); n != 0 {
		t.Errorf("a record on segment %d, behind every bus, cost %d segment predictions, want 0", behind, n)
	}

	// What the buses with some ahead cost when swept afresh, on an engine of
	// their own over the same store, after the record lands.
	mw.addRecord(t, some, "b", 45)
	fresh := &predict.Metrics{}
	eng, err := predict.NewWiLocator(mw.net, mw.store, predict.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetMetrics(fresh)
	hit := whose(some)
	for _, v := range mw.svc.RecomputeVehicles("") {
		for _, id := range hit {
			if v.BusID == id {
				if _, err := eng.PredictAllStops(v.RouteID, v.Arc, v.Updated); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	want := fresh.HistoricalMean.Load() + fresh.SegmentMeanFallback.Load() + fresh.FreeFlowFallback.Load()
	if n := publish("record ahead of some buses"); n != want || want == 0 {
		t.Errorf("a record on segment %d, ahead of %v only, cost %d segment predictions, want their fresh sweeps' %d", some, hit, n, want)
	}
}
