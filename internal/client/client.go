// Package client is the typed HTTP client for the WiLocator server API,
// used by the simulated phones (report upload) and rider-facing tools
// (vehicle, arrival and traffic-map queries).
//
// Calls retry transient failures — 429/503 responses (the server's load
// shedding and a cluster standby that does not serve yet, with a
// Retry-After hint the client honors) and transport errors — with capped
// exponential backoff and jitter. A client given a cluster's node list
// moves to the next node on a transport error or a 503. Every request of
// this API is safe to retry: reads are idempotent and report upload is
// at-least-once by design (the server's fusion window deduplicates by scan
// time, and the loadtest harness already delivers duplicates on purpose).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/xrand"
)

// RetryConfig tunes the client's retry loop. The zero value selects the
// defaults; NoRetry disables retrying entirely.
type RetryConfig struct {
	// MaxAttempts is the total number of tries for one call (1 = no
	// retry). Default 3.
	MaxAttempts int
	// BaseDelay is the wait before the first retry; each further retry
	// doubles it, capped at MaxDelay. The actual wait is jittered
	// uniformly over [wait/2, wait] so a shedding server is not hit by a
	// synchronized thundering herd of retriers. Defaults 100 ms and 2 s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Sleep waits out one backoff period; nil selects a context-aware
	// timer. Tests inject it to run the retry loop without real delays.
	Sleep func(ctx context.Context, d time.Duration) error
	// Rand returns a uniform sample in [0,1) for jitter; nil selects a
	// seeded PRNG. Tests inject it for deterministic waits.
	Rand func() float64
}

// NoRetry disables retrying: every call makes exactly one attempt.
var NoRetry = RetryConfig{MaxAttempts: 1}

// A StatusError is a non-200 response from the server. The code tells a
// permanent rejection (4xx) from an availability failure worth retrying.
type StatusError struct {
	Method     string
	Path       string
	StatusCode int
	Message    string // the server's error envelope, if it sent one
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("client: %s %s: %s (status %d)", e.Method, e.Path, e.Message, e.StatusCode)
	}
	return fmt.Sprintf("client: %s %s: status %d", e.Method, e.Path, e.StatusCode)
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 100 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Second
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	return c
}

// sleepCtx waits d or until the context ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Client talks to one WiLocator server, or to the nodes of a cluster one
// at a time. It is safe for concurrent use.
type Client struct {
	bases []string     // node API base URLs, in failover order
	cur   atomic.Int32 // index into bases of the node calls go to
	hc    *http.Client
	retry RetryConfig

	rngMu sync.Mutex // guards rng (xrand.Rand is not concurrency-safe)
	rng   *xrand.Rand
}

// New creates a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080"). httpClient may be nil for a default with a 10 s
// timeout. The client retries transient failures with the default
// RetryConfig; use NewWithRetry to tune or disable that.
func New(baseURL string, httpClient *http.Client) (*Client, error) {
	return NewWithRetry(baseURL, httpClient, RetryConfig{})
}

// NewWithRetry is New with an explicit retry policy.
func NewWithRetry(baseURL string, httpClient *http.Client, retry RetryConfig) (*Client, error) {
	return NewFailover([]string{baseURL}, httpClient, retry)
}

// NewFailover is NewWithRetry over a cluster: baseURLs lists every node's
// API in the order to try them. Calls go to one node at a time. A
// transport error or a 503 (a standby not yet promoted, a node going
// away) sends the retry, and every later call, to the next URL, wrapping
// around. Moving on spends an attempt of the retry budget like any retry.
func NewFailover(baseURLs []string, httpClient *http.Client, retry RetryConfig) (*Client, error) {
	if len(baseURLs) == 0 {
		return nil, errors.New("client: no base URL")
	}
	bases := make([]string, len(baseURLs))
	for i, b := range baseURLs {
		u, err := url.Parse(b)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("client: invalid base URL %q", b)
		}
		bases[i] = u.String()
	}
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	c := &Client{bases: bases, hc: httpClient, retry: retry.withDefaults()}
	if c.retry.Rand == nil {
		// Jitter quality only needs to decorrelate clients; seeding from
		// the wall clock is fine and keeps the package dependency-free.
		c.rng = xrand.New(uint64(time.Now().UnixNano()))
		c.retry.Rand = func() float64 {
			c.rngMu.Lock()
			defer c.rngMu.Unlock()
			return c.rng.Float64()
		}
	}
	return c, nil
}

// PostReport uploads one phone scan report.
func (c *Client) PostReport(ctx context.Context, rep api.Report) (api.IngestResponse, error) {
	var out api.IngestResponse
	err := c.do(ctx, http.MethodPost, api.PathReports, nil, rep, &out)
	return out, err
}

// Vehicles lists live buses; routeID may be empty for all routes.
func (c *Client) Vehicles(ctx context.Context, routeID string) ([]api.VehicleStatus, error) {
	q := url.Values{}
	if routeID != "" {
		q.Set("route", routeID)
	}
	var out []api.VehicleStatus
	err := c.do(ctx, http.MethodGet, api.PathVehicles, q, nil, &out)
	return out, err
}

// Arrivals predicts arrivals of routeID's live buses at stop stopIdx.
func (c *Client) Arrivals(ctx context.Context, routeID string, stopIdx int) ([]api.ArrivalEstimate, error) {
	q := url.Values{}
	q.Set("route", routeID)
	q.Set("stop", strconv.Itoa(stopIdx))
	var out []api.ArrivalEstimate
	err := c.do(ctx, http.MethodGet, api.PathArrivals, q, nil, &out)
	return out, err
}

// TrafficMap fetches the current traffic map; routeID may be empty.
func (c *Client) TrafficMap(ctx context.Context, routeID string) (api.TrafficMapResponse, error) {
	q := url.Values{}
	if routeID != "" {
		q.Set("route", routeID)
	}
	var out api.TrafficMapResponse
	err := c.do(ctx, http.MethodGet, api.PathTrafficMap, q, nil, &out)
	return out, err
}

// Routes fetches the route inventory.
func (c *Client) Routes(ctx context.Context) (api.RoutesResponse, error) {
	var out api.RoutesResponse
	err := c.do(ctx, http.MethodGet, api.PathRoutes, nil, nil, &out)
	return out, err
}

// Stops lists one route's stops in travel order.
func (c *Client) Stops(ctx context.Context, routeID string) (api.StopsResponse, error) {
	q := url.Values{}
	q.Set("route", routeID)
	var out api.StopsResponse
	err := c.do(ctx, http.MethodGet, api.PathStops, q, nil, &out)
	return out, err
}

// Anomalies lists detected traffic-anomaly sites; routeID may be empty.
func (c *Client) Anomalies(ctx context.Context, routeID string) ([]api.AnomalyReport, error) {
	q := url.Values{}
	if routeID != "" {
		q.Set("route", routeID)
	}
	var out []api.AnomalyReport
	err := c.do(ctx, http.MethodGet, api.PathAnomalies, q, nil, &out)
	return out, err
}

// Trajectory fetches one tracked bus's trajectory (<lat, long, t> tuples).
func (c *Client) Trajectory(ctx context.Context, busID string) (api.TrajectoryResponse, error) {
	q := url.Values{}
	q.Set("bus", busID)
	var out api.TrajectoryResponse
	err := c.do(ctx, http.MethodGet, api.PathTrajectories, q, nil, &out)
	return out, err
}

// Health checks server liveness.
func (c *Client) Health(ctx context.Context) error {
	_, err := c.Healthz(ctx)
	return err
}

// Healthz fetches the full health body: liveness plus the degradation
// counters (ingest outcomes, load shedding, recovered panics, and — when
// the server persists travel times — WAL/snapshot recovery state).
func (c *Client) Healthz(ctx context.Context) (api.HealthResponse, error) {
	var out api.HealthResponse
	err := c.do(ctx, http.MethodGet, api.PathHealth, nil, nil, &out)
	return out, err
}

// node returns the index and base URL of the node calls go to now.
func (c *Client) node() (int32, string) {
	i := c.cur.Load()
	return i, c.bases[i]
}

// failed handles a failed attempt on node i and returns the Retry-After
// hint that still applies. A retryable failure other than a 429 means the
// node is not serving; with more than one node, later calls move to the
// next one (unless a concurrent call already moved them), and the hint of
// the node left behind no longer applies.
func (c *Client) failed(i int32, err error, retryable bool, retryAfter time.Duration) time.Duration {
	var se *StatusError
	if !retryable || len(c.bases) == 1 || errors.As(err, &se) && se.StatusCode == http.StatusTooManyRequests {
		return retryAfter
	}
	c.cur.CompareAndSwap(i, (i+1)%int32(len(c.bases)))
	return 0
}

func (c *Client) do(ctx context.Context, method, path string, q url.Values, in, out any) error {
	pathQuery := path
	if len(q) > 0 {
		pathQuery += "?" + q.Encode()
	}
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: marshal request: %w", err)
		}
		body = b
	}
	wait := c.retry.BaseDelay
	for attempt := 1; ; attempt++ {
		i, base := c.node()
		err, retryable, retryAfter := c.attempt(ctx, method, path, base+pathQuery, in != nil, body, out)
		if err == nil {
			return nil
		}
		retryAfter = c.failed(i, err, retryable, retryAfter)
		if !retryable || attempt >= c.retry.MaxAttempts || ctx.Err() != nil {
			return err
		}
		d := wait
		if retryAfter > 0 {
			// The server knows how loaded it is; trust its hint, but never
			// beyond the configured cap.
			d = retryAfter
		}
		if d > c.retry.MaxDelay {
			d = c.retry.MaxDelay
		}
		d = d/2 + time.Duration(c.retry.Rand()*float64(d/2))
		if serr := c.retry.Sleep(ctx, d); serr != nil {
			return err
		}
		wait *= 2
		if wait > c.retry.MaxDelay {
			wait = c.retry.MaxDelay
		}
	}
}

// attempt makes one HTTP round trip. retryable reports whether the failure
// is transient (429/503 or a transport error on a live context); retryAfter
// carries the server's Retry-After hint when it sent one.
func (c *Client) attempt(ctx context.Context, method, path, u string, hasBody bool, body []byte, out any) (err error, retryable bool, retryAfter time.Duration) {
	var rd io.Reader
	if hasBody {
		rd = bytes.NewReader(body) // fresh reader per attempt
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return fmt.Errorf("client: new request: %w", err), false, 0
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Transport errors (refused, reset, timeout) are worth retrying
		// unless the caller's context itself ended.
		retryable := !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
		return fmt.Errorf("client: %s %s: %w", method, path, err), retryable, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		retryable := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		if retryable {
			if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
		var apiErr api.Error
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		return &StatusError{Method: method, Path: path, StatusCode: resp.StatusCode, Message: apiErr.Message}, retryable, retryAfter
	}
	if out == nil {
		return nil, false, 0
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode response: %w", err), false, 0
	}
	return nil, false, 0
}
