package loadtest

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/client"
	"wilocator/internal/obs"
	"wilocator/internal/server"
	"wilocator/internal/traveltime"
)

// readRecord is one observed (path, ETag) → body binding. Two 200s with the
// same ETag on the same path must carry identical bytes — a torn snapshot
// (headers from one epoch, body from another) would violate it.
type readRecord struct {
	path string
	etag string
}

// tornChecker accumulates (path, ETag) → body-hash bindings across every
// reader goroutine.
type tornChecker struct {
	mu   sync.Mutex
	seen map[readRecord][32]byte
}

func (tc *tornChecker) record(t *testing.T, path, etag string, body [32]byte) {
	t.Helper()
	key := readRecord{path: path, etag: etag}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if prev, ok := tc.seen[key]; ok && prev != body {
		t.Errorf("torn snapshot: GET %s served two different bodies under ETag %s", path, etag)
		return
	}
	tc.seen[key] = body
}

// mixedReader issues the 9-GET read storm paired with each written frame:
// vehicles, arrivals and traffic map for the route, twice each, plus one
// conditional revalidation. Responses are recorded for the torn-snapshot
// check.
type mixedReader struct {
	base    string
	hc      *http.Client
	torn    *tornChecker
	reads   int
	hits304 int
	lastTag string // last vehicles ETag, revalidated conditionally
}

func (mr *mixedReader) get(t *testing.T, path, inm string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, mr.base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := mr.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func (mr *mixedReader) storm(t *testing.T, routeID string) {
	t.Helper()
	paths := []string{
		api.PathVehicles + "?route=" + routeID,
		api.PathArrivals + "?route=" + routeID + "&stop=1",
		api.PathTrafficMap + "?route=" + routeID,
		api.PathVehicles,
		api.PathArrivals + "?route=" + routeID + "&stop=0",
		api.PathTrafficMap,
		api.PathVehicles + "?route=" + routeID,
		api.PathTrafficMap + "?route=" + routeID,
	}
	for _, p := range paths {
		resp, body := mr.get(t, p, "")
		mr.reads++
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d: %s", p, resp.StatusCode, body)
			continue
		}
		etag := resp.Header.Get("ETag")
		if etag == "" {
			t.Errorf("GET %s: no ETag", p)
			continue
		}
		mr.record(t, p, etag, body)
		if strings.HasPrefix(p, api.PathVehicles) {
			mr.lastTag = etag
		}
	}
	// Ninth read: conditional revalidation of the last vehicles response.
	// Under live ingest the snapshot usually rotated (200 + fresh bytes);
	// between mutations it is a 304.
	p := paths[0]
	resp, body := mr.get(t, p, mr.lastTag)
	mr.reads++
	switch resp.StatusCode {
	case http.StatusNotModified:
		mr.hits304++
		if len(body) != 0 {
			t.Errorf("304 with %d body bytes", len(body))
		}
	case http.StatusOK:
		mr.record(t, p, resp.Header.Get("ETag"), body)
	default:
		t.Errorf("conditional GET %s: status %d", p, resp.StatusCode)
	}
}

func (mr *mixedReader) record(t *testing.T, path, etag string, body []byte) {
	t.Helper()
	if _, err := etagEpoch(etag); err != nil {
		t.Errorf("GET %s: %v", path, err)
		return
	}
	mr.torn.record(t, path, etag, sha256.Sum256(body))
}

// etagEpoch parses the strong `"wl-<epoch>"` validator back into its epoch.
func etagEpoch(etag string) (uint64, error) {
	tag := strings.TrimSuffix(strings.TrimPrefix(etag, `"`), `"`)
	if !strings.HasPrefix(tag, "wl-") {
		return 0, fmt.Errorf("malformed ETag %q", etag)
	}
	epoch, err := strconv.ParseUint(tag[len("wl-"):], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed ETag %q: %w", etag, err)
	}
	return epoch, nil
}

// streamState rebuilds a route's vehicle state from its SSE subscription:
// snapshots replace it, deltas upsert/remove on top.
type streamState struct {
	mu       sync.Mutex
	epoch    uint64
	events   int
	vehicles map[string]api.VehicleStatus
}

func (ss *streamState) apply(ev client.StreamEvent) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ev.Epoch <= ss.epoch && ss.events > 0 {
		return fmt.Errorf("stream epoch went %d -> %d", ss.epoch, ev.Epoch)
	}
	ss.events++
	ss.epoch = ev.Epoch
	switch ev.Type {
	case api.EventSnapshot:
		ss.vehicles = make(map[string]api.VehicleStatus, len(ev.Snapshot.Vehicles))
		for _, v := range ev.Snapshot.Vehicles {
			ss.vehicles[v.BusID] = v
		}
	case api.EventDelta:
		if ss.vehicles == nil {
			return fmt.Errorf("delta at epoch %d before any snapshot", ev.Epoch)
		}
		for _, v := range ev.Delta.Updated {
			ss.vehicles[v.BusID] = v
		}
		for _, id := range ev.Delta.Removed {
			delete(ss.vehicles, id)
		}
	}
	return nil
}

func (ss *streamState) snapshot() (events int, vehicles map[string]api.VehicleStatus) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make(map[string]api.VehicleStatus, len(ss.vehicles))
	for id, v := range ss.vehicles {
		out[id] = v
	}
	return ss.events, out
}

// TestMixedReadWriteFleetReplay is the read-path half of the replay
// equivalence argument, run under -race in CI: the full fleet is delivered
// as NDJSON batches while every write is paired with a 9-GET read storm
// (90/10 mixed load) and live SSE subscriptions follow each route. The gate
// asserts, at once:
//
//   - every 200 carries a real published epoch's ETag and identical ETags
//     carry identical bytes (no torn snapshots under concurrency);
//   - the final service state equals the sequential in-process reference
//     (tally, per-bus trajectories, travel-time store);
//   - each stream subscriber's snapshot+delta reconstruction converges to
//     the service's own final vehicle state;
//   - the /metrics scrape reconciles with ReadStats for the new read and
//     broadcast counters.
func TestMixedReadWriteFleetReplay(t *testing.T) {
	w := testWorld(t)
	spec := testSpec()
	spec.Seed = 4242
	streams, err := GenStreams(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	now := FixedClock(T0.Add(spec.Horizon))

	seqSvc, seqStore, err := NewService(w, server.Config{Now: now, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	seqTally := ReplaySequential(seqSvc, streams)
	if seqTally.Errors != 0 || seqTally.Located == 0 {
		t.Fatalf("sequential reference is unusable: %v", seqTally)
	}

	reg := obs.NewRegistry()
	svc, store, err := NewService(w, server.Config{Now: now, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(server.Handler(svc))
	defer ts.Close()
	c, err := client.New(ts.URL, &http.Client{})
	if err != nil {
		t.Fatal(err)
	}

	// One SSE subscription per distinct route of the fleet.
	routes := make(map[string]bool)
	for _, st := range streams {
		routes[st.RouteID] = true
	}
	streamCtx, stopStreams := context.WithCancel(context.Background())
	defer stopStreams()
	states := make(map[string]*streamState, len(routes))
	var streamWG sync.WaitGroup
	for routeID := range routes {
		ss := &streamState{}
		states[routeID] = ss
		streamWG.Add(1)
		go func(routeID string) {
			defer streamWG.Done()
			if err := c.StreamRoute(streamCtx, routeID, 0, ss.apply); err != nil {
				t.Errorf("stream %s: %v", routeID, err)
			}
		}(routeID)
	}

	// Writers: one uploader per bus, NDJSON frames; each acknowledged frame
	// is chased by a 9-GET read storm from the same worker — the 90/10 mix.
	const frame = 48
	var (
		uploadWG sync.WaitGroup
		tallyMu  sync.Mutex
		tally    Tally
		frames   int
	)
	torn := &tornChecker{seen: make(map[readRecord][32]byte)}
	readers := make([]*mixedReader, len(streams))
	for i, st := range streams {
		rd := &mixedReader{base: ts.URL, hc: ts.Client(), torn: torn}
		readers[i] = rd
		uploadWG.Add(1)
		go func(st BusStream, rd *mixedReader) {
			defer uploadWG.Done()
			for from := 0; from < len(st.Reports); from += frame {
				to := from + frame
				if to > len(st.Reports) {
					to = len(st.Reports)
				}
				resp, err := c.PostReportBatch(context.Background(), st.Reports[from:to])
				if err != nil {
					t.Errorf("batch upload bus %s [%d:%d]: %v", st.BusID, from, to, err)
					return
				}
				tallyMu.Lock()
				tally.Delivered += resp.Received
				tally.Accepted += resp.Accepted
				tally.Located += resp.Located
				tally.LateDropped += resp.LateDropped
				tally.Errors += resp.Rejected
				frames++
				tallyMu.Unlock()
				rd.storm(t, st.RouteID)
			}
		}(st, rd)
	}
	uploadWG.Wait()

	// Write/read ratio: exactly 9 reads per acknowledged frame.
	totalReads := 0
	for _, rd := range readers {
		totalReads += rd.reads
	}
	if totalReads != 9*frames {
		t.Errorf("read storm issued %d GETs over %d frames, want %d", totalReads, frames, 9*frames)
	}
	t.Logf("mixed load: %d write frames, %d reads, %d conditional 304s", frames, totalReads, func() int {
		n := 0
		for _, rd := range readers {
			n += rd.hits304
		}
		return n
	}())

	if tally != seqTally {
		t.Fatalf("tallies diverge:\n  sequential %v\n  mixed      %v", seqTally, tally)
	}
	seqTraj, err := Trajectories(seqSvc, streams)
	if err != nil {
		t.Fatal(err)
	}
	mixTraj, err := Trajectories(svc, streams)
	if err != nil {
		t.Fatal(err)
	}
	if err := DiffTrajectories(seqTraj, mixTraj); err != nil {
		t.Fatalf("trajectories diverge: %v", err)
	}
	if err := traveltime.Diff(seqStore, store, 1e-9); err != nil {
		t.Fatalf("travel-time stores diverge: %v", err)
	}

	// Every recorded ETag names an epoch that was actually published.
	finalStats := svc.ReadStats()
	for key := range torn.seen {
		epoch, err := etagEpoch(key.etag)
		if err != nil {
			t.Fatal(err)
		}
		if epoch == 0 || epoch > finalStats.Epoch {
			t.Errorf("GET %s served ETag %s beyond the published epoch %d", key.path, key.etag, finalStats.Epoch)
		}
	}

	// Force a final broadcast and let every subscriber converge on the
	// service's own final per-route vehicle state.
	svc.InvalidateReadSnapshot()
	svc.PublishSnapshot()
	deadline := time.Now().Add(10 * time.Second)
	for routeID, ss := range states {
		want := make(map[string]api.VehicleStatus)
		for _, v := range svc.Vehicles(routeID) {
			want[v.BusID] = v
		}
		for {
			events, got := ss.snapshot()
			if events > 0 && reflect.DeepEqual(got, want) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("stream %s never converged after %d events: reconstructed %d vehicles, service has %d",
					routeID, events, len(got), len(want))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	stopStreams()
	streamWG.Wait()

	// Quiescent /metrics reconciliation of the new read/broadcast counters.
	waitSubsZero := time.Now().Add(5 * time.Second)
	for svc.ReadStats().Subscribers != 0 && time.Now().Before(waitSubsZero) {
		time.Sleep(5 * time.Millisecond)
	}
	series := scrapeSeries(t, server.Handler(svc))
	rs := svc.ReadStats()
	for name, want := range map[string]float64{
		"wilocator_read_publishes_total":    float64(rs.Publishes),
		"wilocator_read_serves_total":       float64(rs.Serves),
		"wilocator_read_not_modified_total": float64(rs.NotModified),
		"wilocator_stream_deltas_total":     float64(rs.StreamDeltas),
		"wilocator_stream_frames_total":     float64(rs.StreamFrames),
		"wilocator_stream_dropped_total":    float64(rs.StreamDropped),
		"wilocator_stream_resumes_total":    float64(rs.StreamResumes),
		"wilocator_stream_subscribers":      0,
		"wilocator_snapshot_epoch":          float64(rs.Epoch),
	} {
		if got := series[name]; got != want {
			t.Errorf("%s = %v, ReadStats says %v", name, got, want)
		}
	}
	if rs.Serves == 0 || rs.Publishes == 0 || rs.StreamFrames == 0 {
		t.Errorf("read path unexercised: %+v", rs)
	}
	if rs.NotModified > rs.Serves {
		t.Errorf("NotModified %d > Serves %d", rs.NotModified, rs.Serves)
	}
	if epoch, got := rs.Epoch, series["wilocator_snapshot_epoch"]; float64(epoch) != got {
		t.Errorf("snapshot epoch gauge %v, service says %d", got, epoch)
	}
}
