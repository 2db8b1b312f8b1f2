package client

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wilocator/internal/api"
)

// fakeServer returns a test server that answers every path with the given
// status and body.
func fakeServer(status int, body string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write([]byte(body))
	}))
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		url    string
		wantOK bool
	}{
		{"http://127.0.0.1:8080", true},
		{"https://wilocator.example.com", true},
		{"not a url", false},
		{"", false},
		{"/relative/only", false},
	}
	for _, tt := range tests {
		_, err := New(tt.url, nil)
		if (err == nil) != tt.wantOK {
			t.Errorf("New(%q) err = %v, wantOK %v", tt.url, err, tt.wantOK)
		}
	}
}

func TestErrorEnvelopeSurfaced(t *testing.T) {
	ts := fakeServer(http.StatusBadRequest, `{"error":"unknown route \"zz\""}`)
	defer ts.Close()
	c, err := New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Vehicles(context.Background(), "zz")
	if err == nil || !strings.Contains(err.Error(), "unknown route") {
		t.Errorf("err = %v, want the server's message surfaced", err)
	}
	if !strings.Contains(err.Error(), "400") {
		t.Errorf("err = %v, want the status code included", err)
	}
}

func TestNonJSONErrorBody(t *testing.T) {
	ts := fakeServer(http.StatusInternalServerError, "boom")
	defer ts.Close()
	c, err := New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Health(context.Background()); err == nil || !strings.Contains(err.Error(), "500") {
		t.Errorf("err = %v, want status-only error", err)
	}
}

func TestMalformedSuccessBody(t *testing.T) {
	ts := fakeServer(http.StatusOK, "{not json")
	defer ts.Close()
	c, err := New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Routes(context.Background()); err == nil || !strings.Contains(err.Error(), "decode") {
		t.Errorf("err = %v, want decode error", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ts := fakeServer(http.StatusOK, "{}")
	defer ts.Close()
	c, err := New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.TrafficMap(ctx, ""); err == nil {
		t.Error("cancelled context did not error")
	}
}

func TestQueryParametersEncoded(t *testing.T) {
	var gotPath string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.String()
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("[]"))
	}))
	defer ts.Close()
	c, err := New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Arrivals(context.Background(), "Rapid Line", 7); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gotPath, "route=Rapid+Line") || !strings.Contains(gotPath, "stop=7") {
		t.Errorf("request path = %q", gotPath)
	}
	if !strings.HasPrefix(gotPath, api.PathArrivals) {
		t.Errorf("path = %q, want prefix %q", gotPath, api.PathArrivals)
	}
}

func TestPostReportSendsJSON(t *testing.T) {
	var gotCT string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotCT = r.Header.Get("Content-Type")
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"accepted":true,"located":false}`))
	}))
	defer ts.Close()
	c, err := New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.PostReport(context.Background(), api.Report{BusID: "b", RouteID: "r"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted || resp.Located {
		t.Errorf("resp = %+v", resp)
	}
	if gotCT != "application/json" {
		t.Errorf("content type = %q", gotCT)
	}
}

// retryHarness captures the backoff waits a call makes, with a fixed
// jitter sample so the expected delays are exact.
type retryHarness struct {
	slept []time.Duration
	rand  float64
}

func (h *retryHarness) config(attempts int) RetryConfig {
	return RetryConfig{
		MaxAttempts: attempts,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Sleep: func(ctx context.Context, d time.Duration) error {
			h.slept = append(h.slept, d)
			return ctx.Err()
		},
		Rand: func() float64 { return h.rand },
	}
}

// flakyServer fails the first n requests with status, then succeeds.
func flakyServer(t *testing.T, n int, status int, hdr http.Header) (*httptest.Server, *int) {
	t.Helper()
	calls := new(int)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		*calls++
		if *calls <= n {
			for k, vs := range hdr {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(status)
			fmt.Fprint(w, `{"error":"shedding"}`)
			return
		}
		fmt.Fprint(w, "{}")
	}))
	t.Cleanup(ts.Close)
	return ts, calls
}

// TestRetryBackoffDoublesWithJitter: 503s are retried with exponential
// backoff; with Rand pinned to 1.0 the waits are exactly base, 2·base, …
// capped at MaxDelay.
func TestRetryBackoffDoublesWithJitter(t *testing.T) {
	h := &retryHarness{rand: 1.0}
	ts, calls := flakyServer(t, 5, http.StatusServiceUnavailable, nil)
	c, err := NewWithRetry(ts.URL, nil, h.config(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("call should succeed on attempt 6: %v", err)
	}
	if *calls != 6 {
		t.Fatalf("made %d attempts, want 6", *calls)
	}
	// Full-jitter (rand=1.0) waits: 100ms, 200ms, 400ms, 800ms, 1.6s.
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond}
	if len(h.slept) != len(want) {
		t.Fatalf("slept %d times (%v), want %d", len(h.slept), h.slept, len(want))
	}
	for i, d := range want {
		if h.slept[i] != d {
			t.Errorf("wait %d = %v, want %v (full jitter)", i, h.slept[i], d)
		}
	}

	// rand=0 halves every wait: the jitter window is [d/2, d).
	h2 := &retryHarness{rand: 0}
	ts2, _ := flakyServer(t, 2, http.StatusServiceUnavailable, nil)
	c2, err := NewWithRetry(ts2.URL, nil, h2.config(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(h2.slept) != 2 || h2.slept[0] != 50*time.Millisecond || h2.slept[1] != 100*time.Millisecond {
		t.Fatalf("low-jitter waits = %v, want [50ms 100ms]", h2.slept)
	}
}

// TestRetryHonorsRetryAfter: a 429 with Retry-After overrides the backoff
// schedule (jittered over the hint), capped at MaxDelay.
func TestRetryHonorsRetryAfter(t *testing.T) {
	h := &retryHarness{rand: 1.0}
	hdr := http.Header{"Retry-After": []string{"1"}}
	ts, calls := flakyServer(t, 1, http.StatusTooManyRequests, hdr)
	c, err := NewWithRetry(ts.URL, nil, h.config(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if *calls != 2 {
		t.Fatalf("made %d attempts, want 2", *calls)
	}
	if len(h.slept) != 1 || h.slept[0] != time.Second {
		t.Fatalf("waits = %v, want [1s] (the server's hint, not the 100ms schedule)", h.slept)
	}

	// A hint beyond MaxDelay is capped.
	h2 := &retryHarness{rand: 1.0}
	hdr2 := http.Header{"Retry-After": []string{"3600"}}
	ts2, _ := flakyServer(t, 1, http.StatusServiceUnavailable, hdr2)
	c2, err := NewWithRetry(ts2.URL, nil, h2.config(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(h2.slept) != 1 || h2.slept[0] != 2*time.Second {
		t.Fatalf("waits = %v, want [2s] (hint capped at MaxDelay)", h2.slept)
	}
}

// TestRetryGivesUpAfterMaxAttempts: a persistent 503 fails after exactly
// MaxAttempts tries with the last response's error.
func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	h := &retryHarness{rand: 1.0}
	ts, calls := flakyServer(t, 1<<30, http.StatusServiceUnavailable, nil)
	c, err := NewWithRetry(ts.URL, nil, h.config(3))
	if err != nil {
		t.Fatal(err)
	}
	err = c.Health(context.Background())
	if err == nil || !strings.Contains(err.Error(), "shedding") {
		t.Fatalf("err = %v, want the server's error envelope", err)
	}
	if *calls != 3 {
		t.Fatalf("made %d attempts, want exactly MaxAttempts=3", *calls)
	}
}

// TestNoRetryOnClientError: 4xx responses other than 429 are not transient
// — exactly one attempt, no sleeping.
func TestNoRetryOnClientError(t *testing.T) {
	h := &retryHarness{rand: 1.0}
	ts, calls := flakyServer(t, 1<<30, http.StatusBadRequest, nil)
	c, err := NewWithRetry(ts.URL, nil, h.config(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("400 reported as success")
	}
	if *calls != 1 || len(h.slept) != 0 {
		t.Fatalf("400 retried: %d attempts, %d sleeps", *calls, len(h.slept))
	}
}

// TestRetryTransportError: connection failures are retried until the
// server appears (here: never), but a canceled context stops the loop.
func TestRetryStopsOnContextCancel(t *testing.T) {
	ts, calls := flakyServer(t, 1<<30, http.StatusServiceUnavailable, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := RetryConfig{
		MaxAttempts: 100,
		BaseDelay:   time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // the caller gives up mid-backoff
			return ctx.Err()
		},
		Rand: func() float64 { return 0.5 },
	}
	c, err := NewWithRetry(ts.URL, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Health(ctx); err == nil {
		t.Fatal("canceled retry loop reported success")
	}
	if *calls != 1 {
		t.Fatalf("made %d attempts after cancellation, want 1", *calls)
	}
}

// TestNoRetryConfig: the NoRetry policy makes exactly one attempt.
func TestNoRetryConfig(t *testing.T) {
	ts, calls := flakyServer(t, 1, http.StatusServiceUnavailable, nil)
	c, err := NewWithRetry(ts.URL, nil, NoRetry)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("single-attempt 503 reported as success")
	}
	if *calls != 1 {
		t.Fatalf("NoRetry made %d attempts, want 1", *calls)
	}
}

// TestRetryPostReportResendsBody: each POST attempt must carry the full
// JSON body (a consumed reader on retry would send an empty request).
func TestRetryPostReportResendsBody(t *testing.T) {
	var bodies []string
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		b, _ := io.ReadAll(r.Body)
		bodies = append(bodies, string(b))
		if calls == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"accepted":true}`)
	}))
	defer ts.Close()
	h := &retryHarness{rand: 0.5}
	c, err := NewWithRetry(ts.URL, nil, h.config(2))
	if err != nil {
		t.Fatal(err)
	}
	rep := api.Report{BusID: "bus-1", RouteID: "r-9", PhoneID: "p-1"}
	if _, err := c.PostReport(context.Background(), rep); err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 2 {
		t.Fatalf("server saw %d requests, want 2", len(bodies))
	}
	if bodies[0] != bodies[1] || !strings.Contains(bodies[1], "bus-1") {
		t.Fatalf("retried body differs or is empty:\n  first  %q\n  second %q", bodies[0], bodies[1])
	}
}

// TestFailoverMovesToNextNode: a client listing several nodes moves to the
// next one on a 503 (without waiting out the refusing node's Retry-After)
// and on a connection error, stays there for later calls, and spends one
// attempt of its budget per move.
func TestFailoverMovesToNextNode(t *testing.T) {
	h := &retryHarness{rand: 1.0}
	standby, standbyCalls := flakyServer(t, 1<<30, http.StatusServiceUnavailable, http.Header{"Retry-After": []string{"30"}})
	leader, leaderCalls := flakyServer(t, 0, http.StatusOK, nil)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	c, err := NewFailover([]string{dead.URL, standby.URL, leader.URL}, nil, h.config(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Health(context.Background()); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if *standbyCalls != 1 || *leaderCalls != 2 {
		t.Fatalf("standby got %d calls, leader %d; want 1 and 2", *standbyCalls, *leaderCalls)
	}
	if len(h.slept) != 2 || h.slept[1] >= time.Second {
		t.Fatalf("waits = %v, want two backoff waits, not the standby's 30 s hint", h.slept)
	}
	if _, err := NewFailover(nil, nil, RetryConfig{}); err == nil {
		t.Error("NewFailover accepted an empty URL list")
	}
}
