package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/client"
	"wilocator/internal/traveltime"
	"wilocator/internal/wifi"
)

func postJSON(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+api.PathReports, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBodyLimitReturns413 is the regression test for the body-size limit:
// an over-limit POST must be answered 413 (so the client knows to shrink
// the payload), never a generic decode 400, and must bump the TooLarge
// counter.
func TestBodyLimitReturns413(t *testing.T) {
	w := newWorld(t, 31)
	ts := httptest.NewServer(NewHandler(w.svc, HandlerConfig{MaxBodyBytes: 256}))
	defer ts.Close()

	big, err := json.Marshal(api.Report{
		BusID:   "b1",
		RouteID: w.route.ID(),
		PhoneID: strings.Repeat("p", 4096),
		Scan:    wifi.Scan{Time: t0},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL, big)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %d, want 413", resp.StatusCode)
	}
	if got := w.svc.HTTPStats().TooLarge; got != 1 {
		t.Errorf("TooLarge counter = %d, want 1", got)
	}

	// A syntactically broken but small body stays a 400: the two failure
	// modes must not be conflated.
	resp = postJSON(t, ts.URL, []byte("{not json"))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: got %d, want 400", resp.StatusCode)
	}
	if got := w.svc.HTTPStats().TooLarge; got != 1 {
		t.Errorf("TooLarge counter moved on a 400: %d", got)
	}
}

// TestSaturationSheds429 saturates the single admission slot with a
// request whose body never finishes arriving, and asserts that (a) probe
// requests are shed with 429 + Retry-After while the slot is held, and
// (b) the in-flight request still completes normally once its body lands.
func TestSaturationSheds429(t *testing.T) {
	w := newWorld(t, 32)
	ts := httptest.NewServer(NewHandler(w.svc, HandlerConfig{
		MaxInFlightReports: 1,
		RetryAfter:         2 * time.Second,
	}))
	defer ts.Close()

	rep, err := json.Marshal(api.Report{
		BusID: "slow-bus", RouteID: w.route.ID(), PhoneID: "p0",
		Scan: wifi.Scan{Time: t0},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The slow request streams its body through a pipe: the handler
	// acquires the semaphore, then blocks decoding until we finish writing.
	pr, pw := io.Pipe()
	// On an early failure, end the body so the deferred ts.Close does not
	// wait forever on the slow request's connection.
	defer pw.Close()
	req, err := http.NewRequest("POST", ts.URL+api.PathReports, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	slowDone := make(chan *http.Response, 1)
	slowErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			slowErr <- err
			return
		}
		slowDone <- resp
	}()
	if _, err := pw.Write(rep[:len(rep)/2]); err != nil {
		t.Fatal(err)
	}

	// Wait for the slow request to reach the handler before the first
	// probe. Alone, it is admitted; a probe that got there first would
	// hold the slot itself and shed the slow request instead.
	deadline := time.Now().Add(5 * time.Second)
	for w.svc.HTTPStats().Offered == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the slow request never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}

	// Probe until the slow request is observably holding the slot.
	var probe *http.Response
	for {
		probe = postJSON(t, ts.URL, rep)
		if probe.StatusCode == http.StatusTooManyRequests {
			break
		}
		io.Copy(io.Discard, probe.Body)
		probe.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("never saw a 429 while the admission slot was held")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ra := probe.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	io.Copy(io.Discard, probe.Body)
	probe.Body.Close()
	if w.svc.HTTPStats().Shed == 0 {
		t.Error("Shed counter did not move")
	}

	// Release the slow request: it was admitted, so it must complete 200
	// even though later arrivals were shed.
	if _, err := pw.Write(rep[len(rep)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	select {
	case resp := <-slowDone:
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("in-flight request finished %d, want 200", resp.StatusCode)
		}
	case err := <-slowErr:
		t.Fatalf("in-flight request failed: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	// The freed slot admits again.
	resp := postJSON(t, ts.URL, rep)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release request got %d, want 200", resp.StatusCode)
	}
}

// TestRecoverPanics asserts a panicking handler yields a counted 500
// instead of killing the process, and that http.ErrAbortHandler — net/http's
// own drop-the-connection signal — is passed through untouched.
func TestRecoverPanics(t *testing.T) {
	w := newWorld(t, 33)
	h := recoverPanics(w.svc, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(fmt.Errorf("synthetic handler bug"))
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/vehicles", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler: got %d, want 500", rec.Code)
	}
	if got := w.svc.HTTPStats().Panics; got != 1 {
		t.Errorf("Panics counter = %d, want 1", got)
	}

	abort := recoverPanics(w.svc, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("http.ErrAbortHandler was swallowed; net/http needs it to abort the connection")
			}
		}()
		abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/vehicles", nil))
	}()
	if got := w.svc.HTTPStats().Panics; got != 1 {
		t.Errorf("Panics counter counted ErrAbortHandler: %d", got)
	}
}

// TestPayloadValidation400 covers the report caps: absurd AP counts and
// out-of-range RSS values are counted 400s that never reach per-bus state.
func TestPayloadValidation400(t *testing.T) {
	w := newWorld(t, 34)
	ts := httptest.NewServer(Handler(w.svc))
	defer ts.Close()

	tooMany := make([]wifi.Reading, api.MaxScanReadings+1)
	for i := range tooMany {
		tooMany[i] = wifi.Reading{BSSID: wifi.BSSID(fmt.Sprintf("ap-%d", i)), RSSI: -60}
	}
	cases := []struct {
		name string
		rep  api.Report
	}{
		{"oversized scan", api.Report{BusID: "b1", RouteID: w.route.ID(), PhoneID: "p",
			Scan: wifi.Scan{Time: t0, Readings: tooMany}}},
		{"absurd RSS high", api.Report{BusID: "b1", RouteID: w.route.ID(), PhoneID: "p",
			Scan: wifi.Scan{Time: t0, Readings: []wifi.Reading{{BSSID: "ap", RSSI: 9999}}}}},
		{"absurd RSS low", api.Report{BusID: "b1", RouteID: w.route.ID(), PhoneID: "p",
			Scan: wifi.Scan{Time: t0, Readings: []wifi.Reading{{BSSID: "ap", RSSI: -9999}}}}},
		{"huge bus id", api.Report{BusID: strings.Repeat("b", api.MaxIDLength+1), RouteID: w.route.ID(),
			Scan: wifi.Scan{Time: t0}}},
	}
	for i, tc := range cases {
		body, err := json.Marshal(tc.rep)
		if err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, ts.URL, body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", tc.name, resp.StatusCode)
		}
		if got := w.svc.Stats().Invalid; got != uint64(i+1) {
			t.Errorf("%s: Invalid counter = %d, want %d", tc.name, got, i+1)
		}
	}
	// None of the poisoned reports may have registered a bus.
	if n := len(w.svc.Vehicles("")); n != 0 {
		t.Errorf("invalid reports registered %d buses", n)
	}
}

// TestHealthzShape exercises GET /v1/healthz end to end through the typed
// client: ingest/http/persist counters must all be present and live.
func TestHealthzShape(t *testing.T) {
	w := newWorld(t, 35)
	store := traveltime.NewStore(traveltime.PaperPlan())
	p, err := traveltime.OpenPersister(t.TempDir(), store, traveltime.PersistConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			t.Errorf("close persister: %v", err)
		}
	}()
	svc, err := NewService(w.dia, store, Config{
		Now:          w.now,
		Sink:         p.Record,
		PersistStats: p.Stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{MaxBodyBytes: 128}))
	defer ts.Close()

	// Drive each counter at least once: one invalid report, one oversized
	// body.
	bad, _ := json.Marshal(api.Report{BusID: "b", RouteID: w.route.ID(),
		Scan: wifi.Scan{Time: t0, Readings: []wifi.Reading{{BSSID: "ap", RSSI: 9999}}}})
	resp := postJSON(t, ts.URL, bad)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	huge, _ := json.Marshal(api.Report{BusID: "b", RouteID: w.route.ID(),
		PhoneID: strings.Repeat("p", 512), Scan: wifi.Scan{Time: t0}})
	resp = postJSON(t, ts.URL, huge)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	c, err := client.New(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK {
		t.Error("healthz not OK")
	}
	if h.Ingest.Invalid != 1 || h.Ingest.Rejected != 1 {
		t.Errorf("healthz ingest counters: %+v", h.Ingest)
	}
	if h.HTTP.TooLarge != 1 {
		t.Errorf("healthz http counters: %+v", h.HTTP)
	}
	if h.Persist == nil {
		t.Fatal("healthz persist stats missing despite WAL-backed service")
	}
	if h.Persist.WALTailError != "" || h.Persist.SnapshotLoaded {
		t.Errorf("fresh persister reported odd recovery state: %+v", *h.Persist)
	}

	// The legacy Health() probe still works against the same endpoint.
	if err := c.Health(context.Background()); err != nil {
		t.Errorf("Health(): %v", err)
	}
}
