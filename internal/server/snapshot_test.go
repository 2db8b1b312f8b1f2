package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/mobility"
	"wilocator/internal/sensing"
	"wilocator/internal/xrand"
)

// runBusHalf replays the first half of a simulated trip so the bus is live
// (not done) when the test queries the read products.
func (w *world) runBusHalf(t testing.TB, busID string, start time.Time, phones int, seed uint64) {
	t.Helper()
	field := mobility.DefaultCongestion(1)
	trip, err := mobility.Drive(w.net, w.route.ID(), start, mobility.DriveConfig{}, field, nil, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	group, err := sensing.NewRiderPhones(busID, phones, w.dep, sensing.PhoneConfig{ReportLoss: -1}, xrand.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	half := trip.Start().Add(trip.Duration() / 2)
	for at := trip.Start(); at.Before(half); at = at.Add(sensing.DefaultScanPeriod) {
		pos := w.route.PointAt(trip.ArcAt(at))
		for _, p := range group {
			if scan, ok := p.ScanAt(pos, at); ok {
				if _, err := w.svc.Ingest(api.Report{BusID: busID, RouteID: w.route.ID(), PhoneID: p.ID(), Scan: scan}); err != nil {
					t.Fatalf("Ingest: %v", err)
				}
			}
		}
		w.setClock(at)
	}
}

// TestSnapshotEquivalence pins the tentpole contract: at quiescence, every
// read product served from the epoch snapshot is byte-identical (as JSON) to
// what the pre-snapshot lock path computes at call time. One finished and
// one live bus cover the done/stale filters on both paths.
func TestSnapshotEquivalence(t *testing.T) {
	w := newWorld(t, 50)
	w.runBus(t, "bus-done", t0, 3, 500)
	w.runBusHalf(t, "bus-live", w.now().Add(time.Minute), 3, 510)

	eq := func(name string, snap, ref any) {
		t.Helper()
		a, b := marshalBody(snap), marshalBody(ref)
		if !bytes.Equal(a, b) {
			t.Errorf("%s diverged:\nsnapshot:  %s\nrecompute: %s", name, a, b)
		}
	}

	for _, routeID := range []string{"", w.route.ID(), "nope"} {
		eq("Vehicles("+routeID+")", w.svc.Vehicles(routeID), w.svc.RecomputeVehicles(routeID))
	}
	for stop := 0; stop < w.route.NumStops(); stop++ {
		got, gotErr := w.svc.Arrivals(w.route.ID(), stop)
		ref, refErr := w.svc.RecomputeArrivals(w.route.ID(), stop)
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("Arrivals(stop %d) err = %v, recompute err = %v", stop, gotErr, refErr)
		}
		eq("Arrivals", got, ref)
	}
	for _, routeID := range []string{"", w.route.ID()} {
		got, err := w.svc.TrafficMap(routeID)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := w.svc.RecomputeTrafficMap(routeID)
		if err != nil {
			t.Fatal(err)
		}
		eq("TrafficMap("+routeID+")", got, ref)
	}
	for _, busID := range []string{"bus-done", "bus-live"} {
		got, err := w.svc.Trajectory(busID)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := w.svc.RecomputeTrajectory(busID)
		if err != nil {
			t.Fatal(err)
		}
		eq("Trajectory("+busID+")", got, ref)
	}
	for _, routeID := range []string{"", w.route.ID()} {
		got, err := w.svc.Anomalies(routeID)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := w.svc.RecomputeAnomalies(routeID)
		if err != nil {
			t.Fatal(err)
		}
		eq("Anomalies("+routeID+")", got, ref)
	}

	// Error cases stay errors on both paths.
	if _, err := w.svc.Arrivals("nope", 0); err == nil {
		t.Error("unknown route accepted")
	}
	if _, err := w.svc.Trajectory("ghost"); err == nil {
		t.Error("unknown bus accepted")
	}
	if _, err := w.svc.Anomalies("nope"); err == nil {
		t.Error("unknown route accepted by Anomalies")
	}
}

// TestReadsShareSnapshotEpoch is the regression test for the per-request
// recompute fix: once the snapshot is published, any number of reads — and
// in particular an Anomalies + Trajectory pair — are served from the same
// epoch without triggering further publishes; a mutation triggers exactly
// one republish for the next read.
func TestReadsShareSnapshotEpoch(t *testing.T) {
	w := newWorld(t, 51)
	w.runBusHalf(t, "bus-1", t0, 3, 520)

	w.svc.Vehicles("") // settle: publish the post-ingest snapshot
	st0 := w.svc.ReadStats()
	for i := 0; i < 10; i++ {
		w.svc.Vehicles("")
		if _, err := w.svc.Arrivals(w.route.ID(), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := w.svc.TrafficMap(""); err != nil {
			t.Fatal(err)
		}
		if _, err := w.svc.Anomalies(""); err != nil {
			t.Fatal(err)
		}
		if _, err := w.svc.Trajectory("bus-1"); err != nil {
			t.Fatal(err)
		}
		w.svc.ActiveBuses()
	}
	st1 := w.svc.ReadStats()
	if st1.Publishes != st0.Publishes || st1.Epoch != st0.Epoch {
		t.Errorf("60 quiescent reads republished: publishes %d -> %d, epoch %d -> %d",
			st0.Publishes, st1.Publishes, st0.Epoch, st1.Epoch)
	}

	// One mutation → exactly one republish, shared by the next reads.
	w.svc.InvalidateReadSnapshot()
	if _, err := w.svc.Anomalies(""); err != nil {
		t.Fatal(err)
	}
	if _, err := w.svc.Trajectory("bus-1"); err != nil {
		t.Fatal(err)
	}
	st2 := w.svc.ReadStats()
	if st2.Publishes != st1.Publishes+1 {
		t.Errorf("publishes %d -> %d after one invalidation, want exactly one more", st1.Publishes, st2.Publishes)
	}
	if st2.Epoch != st1.Epoch+1 {
		t.Errorf("epoch %d -> %d after one invalidation", st1.Epoch, st2.Epoch)
	}
}

// TestHTTPReadCaching drives the caching layer over the wire: strong ETags
// derived from the epoch, If-None-Match → 304 with no body, Cache-Control
// max-age from the snapshot's remaining window, and a fresh ETag after a
// mutation.
func TestHTTPReadCaching(t *testing.T) {
	w := newWorld(t, 52)
	w.runBusHalf(t, "bus-1", t0, 3, 530)
	ts := httptest.NewServer(Handler(w.svc))
	defer ts.Close()

	get := func(path, inm string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	body := func(resp *http.Response) []byte {
		t.Helper()
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	paths := []string{
		api.PathVehicles + "?route=" + w.route.ID(),
		api.PathArrivals + "?route=" + w.route.ID() + "&stop=1",
		api.PathTrafficMap,
	}
	for _, path := range paths {
		resp := get(path, "")
		b1 := body(resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		etag := resp.Header.Get("ETag")
		if len(etag) < 2 || etag[0] != '"' || etag[:3] == `W/"` {
			t.Fatalf("GET %s: ETag %q is not a strong validator", path, etag)
		}
		cc := resp.Header.Get("Cache-Control")
		if !bytes.Contains([]byte(cc), []byte("max-age=")) {
			t.Errorf("GET %s: Cache-Control = %q, want a max-age", path, cc)
		}

		// Conditional revalidation: same ETag → 304, empty body.
		resp304 := get(path, etag)
		if b := body(resp304); resp304.StatusCode != http.StatusNotModified || len(b) != 0 {
			t.Errorf("GET %s If-None-Match: status %d, body %q", path, resp304.StatusCode, b)
		}
		if got := resp304.Header.Get("ETag"); got != etag {
			t.Errorf("304 ETag = %q, want %q", got, etag)
		}
		// Wildcard and multi-value lists match; a stale ETag does not.
		if resp := get(path, "*"); resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match: * -> %d", resp.StatusCode)
		} else {
			body(resp)
		}
		if resp := get(path, `"stale", `+etag); resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match list -> %d", resp.StatusCode)
		} else {
			body(resp)
		}
		respStale := get(path, `"wl-0"`)
		if b := body(respStale); respStale.StatusCode != http.StatusOK || !bytes.Equal(b, b1) {
			t.Errorf("stale ETag revalidation: status %d", respStale.StatusCode)
		}
	}

	// A mutation rotates the ETag and the old one stops validating.
	before := get(paths[0], "")
	_ = body(before)
	w.svc.InvalidateReadSnapshot()
	after := get(paths[0], before.Header.Get("ETag"))
	_ = body(after)
	if after.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation revalidation: status %d, want 200", after.StatusCode)
	}
	if after.Header.Get("ETag") == before.Header.Get("ETag") {
		t.Error("ETag did not rotate across a mutation")
	}

	st := w.svc.ReadStats()
	if st.NotModified == 0 || st.NotModified > st.Serves {
		t.Errorf("read stats = %+v, want 0 < NotModified <= Serves", st)
	}
}

// TestGETBodiesMatchRecompute pins the served bytes of every cacheable read:
// each 200 body of the vehicles, arrivals and traffic-map endpoints is
// byte-equal to marshalBody of the call-time reference computation, an
// unknown route's vehicles answer the nil-slice "null", and an arrival
// TestETagOfEpoch pins the ETag format across the epochs where fmt's
// formatting changed cost (two digits, three digits, 256 and up).
func TestETagOfEpoch(t *testing.T) {
	for _, e := range []uint64{0, 1, 99, 100, 255, 256, 1 << 40, 1<<64 - 1} {
		if got, want := etagOf(e), fmt.Sprintf("%q", fmt.Sprintf("wl-%d", e)); got != want {
			t.Errorf("etagOf(%d) = %s, want %s", e, got, want)
		}
	}
}

// prediction error stays a 400 carrying the reference's message.
func TestGETBodiesMatchRecompute(t *testing.T) {
	w := newWorld(t, 53)
	w.runBus(t, "bus-done", t0, 3, 540)
	w.runBusHalf(t, "bus-live", w.now().Add(time.Minute), 3, 545)
	h := Handler(w.svc)

	get := func(target string) (int, []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		return rec.Code, rec.Body.Bytes()
	}
	check := func(target string, wantCode int, want []byte) {
		t.Helper()
		code, got := get(target)
		if code != wantCode || !bytes.Equal(got, want) {
			t.Errorf("GET %s: status %d body\n%s\nwant %d\n%s", target, code, got, wantCode, want)
		}
	}

	routes := []string{""}
	for _, rt := range w.net.Routes() {
		routes = append(routes, rt.ID())
	}
	for _, routeID := range append(routes, "ghost") {
		check(api.PathVehicles+"?route="+routeID, http.StatusOK, marshalBody(w.svc.RecomputeVehicles(routeID)))
	}
	for _, rt := range w.net.Routes() {
		for stop := 0; stop < rt.NumStops(); stop++ {
			target := fmt.Sprintf("%s?route=%s&stop=%d", api.PathArrivals, rt.ID(), stop)
			ests, err := w.svc.RecomputeArrivals(rt.ID(), stop)
			if err != nil {
				check(target, http.StatusBadRequest, marshalBody(api.Error{Message: err.Error()}))
				continue
			}
			check(target, http.StatusOK, marshalBody(ests))
		}
	}
	for _, routeID := range routes {
		ref, err := w.svc.RecomputeTrafficMap(routeID)
		if err != nil {
			t.Fatal(err)
		}
		check(api.PathTrafficMap+"?route="+routeID, http.StatusOK, marshalBody(ref))
	}
}

// renderedCells lists the cells of snap whose body has been rendered, as
// "kind:route[:stop]" keys in sorted order.
func renderedCells(snap *readSnapshot) []string {
	var out []string
	for route, c := range snap.vehicles {
		if c.body != nil {
			out = append(out, "vehicles:"+route)
		}
	}
	for route, cells := range snap.arrivals {
		for i := range cells {
			if cells[i].body != nil {
				out = append(out, fmt.Sprintf("arrivals:%s:%d", route, i))
			}
		}
	}
	for route, c := range snap.tmaps {
		if c.body != nil {
			out = append(out, "trafficmap:"+route)
		}
	}
	sort.Strings(out)
	return out
}

// TestSnapshotRendersOnlyOnRead pins who renders a cell's body: a publish
// renders none, a 304 revalidation renders none, an SSE subscribe and a
// broadcast render none, and a 200 renders exactly the cell it served.
func TestSnapshotRendersOnlyOnRead(t *testing.T) {
	w := newWorld(t, 54)
	w.runBusHalf(t, "bus-1", t0, 3, 550)
	defer w.svc.Close()
	h := Handler(w.svc)
	route := w.route.ID()

	get := func(target, inm string) int {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, target, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	want := func(snap *readSnapshot, what string, keys ...string) {
		t.Helper()
		if got := renderedCells(snap); fmt.Sprint(got) != fmt.Sprint(keys) {
			t.Errorf("%s: rendered cells %v, want %v", what, got, keys)
		}
	}

	w.svc.InvalidateReadSnapshot()
	w.svc.PublishSnapshot()
	snap := w.svc.snap.cur.Load()
	want(snap, "after a publish")

	paths := []string{
		api.PathVehicles,
		api.PathVehicles + "?route=" + route,
		api.PathArrivals + "?route=" + route + "&stop=1",
		api.PathTrafficMap,
		api.PathTrafficMap + "?route=" + route,
	}
	for _, path := range paths {
		if code := get(path, snap.etag); code != http.StatusNotModified {
			t.Fatalf("GET %s If-None-Match %s: status %d, want 304", path, snap.etag, code)
		}
	}
	want(snap, "after 304 revalidations")

	sub, initial, err := w.svc.bcast.subscribe(route, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.svc.bcast.unsubscribe(sub)
	if len(initial) != 1 {
		t.Fatalf("initial frames = %d, want 1", len(initial))
	}
	epoch := advanceEpoch(t, w)
	select {
	case <-sub.ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("no delta for epoch %d", epoch)
	}
	want(snap, "previous epoch after a subscribe and a broadcast")
	snap = w.svc.snap.cur.Load()
	if snap.epoch != epoch {
		t.Fatalf("served epoch %d, broadcast %d", snap.epoch, epoch)
	}
	want(snap, "after a subscribe and a broadcast")

	if code := get(paths[1], ""); code != http.StatusOK {
		t.Fatalf("GET %s: status %d", paths[1], code)
	}
	want(snap, "after one vehicles GET", "vehicles:"+route)
	if code := get(paths[2], ""); code != http.StatusOK {
		t.Fatalf("GET %s: status %d", paths[2], code)
	}
	want(snap, "after an arrivals GET", "arrivals:"+route+":1", "vehicles:"+route)
	if code := get(paths[3], ""); code != http.StatusOK {
		t.Fatalf("GET %s: status %d", paths[3], code)
	}
	want(snap, "after a traffic-map GET", "arrivals:"+route+":1", "trafficmap:", "vehicles:"+route)
	if w.svc.Epoch() != epoch {
		t.Fatalf("epoch moved to %d during the reads", w.svc.Epoch())
	}
}

// captureRW is a ResponseWriter that keeps the slice its body was written
// from, so a test can tell whether two responses share one backing array.
type captureRW struct {
	discardRW
	body []byte
}

func (w *captureRW) Write(p []byte) (int, error) {
	w.body = p
	return len(p), nil
}

// TestSnapshotConcurrentFirstReadsShareOneRender: eight readers GET every
// cell of one fresh epoch at once; every answer for a path is the same
// bytes from the same backing array, so the concurrent first readers shared
// one render.
func TestSnapshotConcurrentFirstReadsShareOneRender(t *testing.T) {
	w := newWorld(t, 55)
	w.runBusHalf(t, "bus-1", t0, 3, 560)
	w.runBusHalf(t, "bus-2", w.now().Add(time.Minute), 2, 570)
	defer w.svc.Close()
	h := Handler(w.svc)

	paths := []string{api.PathVehicles, api.PathTrafficMap}
	for _, rt := range w.net.Routes() {
		paths = append(paths,
			api.PathVehicles+"?route="+rt.ID(),
			api.PathTrafficMap+"?route="+rt.ID())
		for stop := 0; stop < rt.NumStops(); stop++ {
			if _, err := w.svc.Arrivals(rt.ID(), stop); err == nil {
				paths = append(paths, fmt.Sprintf("%s?route=%s&stop=%d", api.PathArrivals, rt.ID(), stop))
			}
		}
	}
	epoch := advanceEpoch(t, w)
	if got := renderedCells(w.svc.snap.cur.Load()); len(got) != 0 {
		t.Fatalf("fresh epoch already rendered %v", got)
	}

	const readers = 8
	bodies := make([][][]byte, readers)
	codes := make([][]int, readers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < readers; g++ {
		bodies[g] = make([][]byte, len(paths))
		codes[g] = make([]int, len(paths))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := range paths {
				rw := &captureRW{}
				h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, paths[i], nil))
				codes[g][i], bodies[g][i] = rw.code, rw.body
			}
		}(g)
	}
	close(start)
	wg.Wait()

	if w.svc.Epoch() != epoch {
		t.Fatalf("epoch moved from %d to %d during the reads", epoch, w.svc.Epoch())
	}
	for i, path := range paths {
		first := bodies[0][i]
		for g := 0; g < readers; g++ {
			if codes[g][i] != http.StatusOK {
				t.Fatalf("reader %d GET %s: status %d", g, path, codes[g][i])
			}
			got := bodies[g][i]
			if !bytes.Equal(got, first) {
				t.Errorf("GET %s: reader %d body differs from reader 0", path, g)
			}
			if len(got) == 0 || &got[0] != &first[0] {
				t.Errorf("GET %s: reader %d was served a separate render", path, g)
			}
		}
	}
}
