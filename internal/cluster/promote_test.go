package cluster_test

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/client"
	"wilocator/internal/loadtest"
	"wilocator/internal/server"
	"wilocator/internal/traveltime"
)

// promotedRun is a two-node cluster whose leader n1 was killed mid-fleet,
// once its WAL was replicated, and whose standby n2 has promoted the
// replica.
type promotedRun struct {
	streams []loadtest.BusStream
	crashAt int
	n2      *testNode
	ps      *loadtest.PersistentService // the promoted System
}

func promoteMidFleet(t *testing.T, promotedSync int) promotedRun {
	t.Helper()
	w := testWorld(t)
	spec := clusterSpec()
	streams, err := loadtest.GenStreams(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	now := loadtest.FixedClock(loadtest.T0.Add(spec.Horizon))
	nodes := startCluster(t, w, now, []string{"n1", "n2"}, clusterOpts{
		failoverAfter: time.Second, promotedSync: promotedSync,
	})
	n1, n2 := nodes["n1"], nodes["n2"]
	crashAt := loadtest.TotalReports(streams) / 2
	if tl := replayVia(streams, 0, crashAt, n1.serving().Svc.Ingest); tl.Errors != 0 {
		t.Fatalf("phase 1 errored: %v", tl)
	}
	waitFor(t, 30*time.Second, "replication drained", func() bool { return lag(n1.node) == 0 })
	n1.kill()
	return promotedRun{streams: streams, crashAt: crashAt, n2: n2, ps: promotedSvc(t, n2)}
}

// postFrames posts reps to base's batch door in frames of frame lines and
// fails the test unless every frame is acknowledged 200.
func postFrames(t *testing.T, base string, reps []api.Report, frame int) {
	t.Helper()
	c, err := client.NewWithRetry(base, nil, client.NoRetry)
	if err != nil {
		t.Fatal(err)
	}
	for from := 0; from < len(reps); from += frame {
		to := min(from+frame, len(reps))
		if _, err := c.PostReportBatch(t.Context(), reps[from:to]); err != nil {
			t.Fatalf("frame [%d:%d]: %v", from, to, err)
		}
	}
}

// TestPromotedStandbyServesReads: after a promotion, the rider reads of
// the promoted node show the promoted service's buses — over HTTP, not
// only through the service.
func TestPromotedStandbyServesReads(t *testing.T) {
	run := promoteMidFleet(t, 1)
	postFrames(t, run.n2.api.URL, loadtest.FlattenReports(run.streams)[run.crashAt:], 64)
	routes := map[string]bool{}
	for _, st := range run.streams {
		routes[st.RouteID] = true
	}
	checkReadsMatch(t, run.n2.api.URL, run.ps.Svc, routes)
}

// checkReadsMatch requires GET /v1/vehicles and GET /v1/arrivals on base
// to answer exactly what svc answers for every route in routes, with at
// least one live bus among them.
func checkReadsMatch(t *testing.T, base string, svc *server.Service, routes map[string]bool) {
	t.Helper()
	buses := 0
	for route := range routes {
		want := svc.Vehicles(route)
		buses += len(want)
		var got []api.VehicleStatus
		getJSON(t, base+api.PathVehicles+"?route="+route, &got)
		if !sameJSON(t, got, want) {
			t.Errorf("GET vehicles route %s: %d buses over HTTP, the serving service holds %d", route, len(got), len(want))
		}
		stops, err := svc.Stops(route)
		if err != nil {
			t.Fatal(err)
		}
		stop := len(stops.Stops) - 1
		wantArr, err := svc.Arrivals(route, stop)
		if err != nil {
			t.Fatal(err)
		}
		var gotArr []api.ArrivalEstimate
		getJSON(t, base+api.PathArrivals+"?route="+route+"&stop="+strconv.Itoa(stop), &gotArr)
		if !sameJSON(t, gotArr, wantArr) {
			t.Errorf("GET arrivals route %s stop %d: %d estimates over HTTP, the serving service holds %d", route, stop, len(gotArr), len(wantArr))
		}
	}
	if buses == 0 {
		t.Fatal("the serving service holds no live bus; the read check is vacuous")
	}
}

func getJSON(t *testing.T, u string, out any) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", u, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
}

// sameJSON compares two values by their wire form.
func sameJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var va, vb any
	_ = json.Unmarshal(ja, &va)
	_ = json.Unmarshal(jb, &vb)
	return reflect.DeepEqual(va, vb)
}

// TestPromotedBatchAckIsDurable: once a standby is promoted, a batch
// acknowledged 200 is fsynced — every record it produced survives a kill
// -9 of the promoted node — even with the promoted persister's own
// count-triggered fsync far away (SyncEvery 64, the server's default). A
// graceful shutdown afterwards snapshots the promoted store whole and
// leaves no goroutine behind.
func TestPromotedBatchAckIsDurable(t *testing.T) {
	baseline := runtime.NumGoroutine()
	run := promoteMidFleet(t, 64)
	before := run.ps.Store.NumRecords()
	postFrames(t, run.n2.api.URL, loadtest.FlattenReports(run.streams)[run.crashAt:], 64)
	if run.ps.Store.NumRecords() == before {
		t.Fatal("no record was made after the promotion; the durability check is vacuous")
	}
	crashed := filepath.Join(t.TempDir(), "crashed")
	if err := loadtest.SimulateCrash(run.ps, crashed); err != nil {
		t.Fatal(err)
	}
	assertRecovers(t, crashed, run.ps.Store, "acked batches after the promotion, crashed")

	run.n2.shutdown(t)
	assertRecovers(t, run.ps.Dir, run.ps.Store, "promoted store after a graceful shutdown")
	goroutinesSettle(t, baseline)
}

// assertRecovers opens dir as a restarted server would and requires the
// recovered store to equal want.
func assertRecovers(t *testing.T, dir string, want *traveltime.Store, what string) {
	t.Helper()
	got, p, err := loadtest.Recover(dir, traveltime.PersistConfig{})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", what, err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			t.Errorf("%s: close recovered persister: %v", what, err)
		}
	}()
	if err := traveltime.Diff(want, got, 1e-9); err != nil {
		t.Fatalf("%s: recovered store differs: %v", what, err)
	}
}
