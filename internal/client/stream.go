package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"wilocator/internal/api"
)

// StreamEvent is one event of a /v1/stream subscription, already decoded.
// Exactly one of Snapshot and Delta is set, matching Type.
type StreamEvent struct {
	// Type is api.EventSnapshot or api.EventDelta.
	Type  string
	Epoch uint64
	// Snapshot is the full route state; replace any held state with it.
	Snapshot *api.StreamSnapshot
	// Delta is one epoch's change set; apply it on top of the held state.
	Delta *api.StreamDelta
}

// maxFrameBytes bounds one SSE line; a full-route snapshot of a large fleet
// is well under this.
const maxFrameBytes = 4 << 20

// StreamRoute subscribes to the server's delta push for one route and calls
// fn for every decoded event, in order. It implements the resume protocol:
// the client tracks the last epoch it applied, skips stale deltas replayed
// during catch-up, and — when the server ends the stream (slow-subscriber
// shed, write timeout, restart) or the transport fails — reconnects with
// ?from=<last epoch> so the server replays exactly the missed suffix (or a
// fresh snapshot when the suffix is no longer retained).
//
// Reconnect attempts back off exponentially with jitter under the client's
// RetryConfig; the attempt budget applies per connection streak and resets
// whenever a connection makes progress (delivers an event). The call returns
// nil once ctx ends, the first error fn returns, a non-retryable HTTP
// status, or the retry budget exhausting with no progress.
//
// The stream outlives any http.Client.Timeout; pass a client without one
// (e.g. &http.Client{}) when constructing the Client for long subscriptions.
func (c *Client) StreamRoute(ctx context.Context, routeID string, from uint64, fn func(StreamEvent) error) error {
	if routeID == "" {
		return fmt.Errorf("client: StreamRoute requires a route")
	}
	last := from
	wait := c.retry.BaseDelay
	failures := 0
	for {
		i, base := c.node()
		progressed, err := c.streamOnce(ctx, base, routeID, &last, fn)
		if ctx.Err() != nil {
			return nil
		}
		if err != nil {
			var serr *StatusError
			if isStatus(err, &serr) &&
				serr.StatusCode != http.StatusTooManyRequests &&
				serr.StatusCode != http.StatusServiceUnavailable {
				return err // permanent rejection (bad route, stream disabled)
			}
			if te, ok := err.(*termError); ok {
				return te.err // the consumer stopped the stream, or version skew
			}
			c.failed(i, err, true, 0)
		}
		if progressed {
			// The connection worked; a later drop starts a fresh streak.
			failures = 0
			wait = c.retry.BaseDelay
			continue
		}
		failures++
		if failures >= c.retry.MaxAttempts {
			if err == nil {
				err = fmt.Errorf("client: stream %s: server closed %d connections without an event", routeID, failures)
			}
			return err
		}
		d := wait
		if d > c.retry.MaxDelay {
			d = c.retry.MaxDelay
		}
		d = d/2 + time.Duration(c.retry.Rand()*float64(d/2))
		if serr := c.retry.Sleep(ctx, d); serr != nil {
			return nil
		}
		wait *= 2
		if wait > c.retry.MaxDelay {
			wait = c.retry.MaxDelay
		}
	}
}

// termError wraps an error that must terminate the stream — the consumer
// callback returned it, or a frame failed to decode (server/client version
// skew a reconnect cannot fix) — so the reconnect loop can tell it apart
// from a transient transport failure.
type termError struct{ err error }

func (e *termError) Error() string { return e.err.Error() }

func isStatus(err error, out **StatusError) bool {
	se, ok := err.(*StatusError)
	if ok {
		*out = se
	}
	return ok
}

// streamOnce runs one stream connection until it ends, updating *last as
// events are applied. progressed reports whether at least one event was
// delivered to fn.
func (c *Client) streamOnce(ctx context.Context, base, routeID string, last *uint64, fn func(StreamEvent) error) (progressed bool, err error) {
	q := url.Values{}
	q.Set("route", routeID)
	if *last > 0 {
		q.Set("from", strconv.FormatUint(*last, 10))
	}
	u := base + api.PathStream + "?" + q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, fmt.Errorf("client: new stream request: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, fmt.Errorf("client: GET %s: %w", api.PathStream, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var apiErr api.Error
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		return false, &StatusError{Method: http.MethodGet, Path: api.PathStream,
			StatusCode: resp.StatusCode, Message: apiErr.Message}
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), maxFrameBytes)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" && data != "" {
				applied, ferr := applyFrame(event, data, last, fn)
				if ferr != nil {
					return progressed, ferr
				}
				progressed = progressed || applied
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
		// id: lines duplicate the epoch already carried in the payload.
	}
	// A scanner error (connection reset mid-frame) and a clean EOF (server
	// shed us or timed the response out) both mean the same thing here:
	// reconnect and resume from *last.
	return progressed, sc.Err()
}

// applyFrame decodes one complete SSE frame and hands it to fn, maintaining
// the resume epoch. Stale deltas (epoch <= last, seen when the server's
// catch-up replay overlaps what the client already applied) are skipped:
// deltas are idempotent upserts, so skipping is purely an optimization.
func applyFrame(event, data string, last *uint64, fn func(StreamEvent) error) (bool, error) {
	switch event {
	case api.EventSnapshot:
		var snap api.StreamSnapshot
		if err := json.Unmarshal([]byte(data), &snap); err != nil {
			return false, &termError{err: fmt.Errorf("client: decode stream snapshot: %w", err)}
		}
		*last = snap.Epoch
		if err := fn(StreamEvent{Type: api.EventSnapshot, Epoch: snap.Epoch, Snapshot: &snap}); err != nil {
			return true, &termError{err: err}
		}
		return true, nil
	case api.EventDelta:
		var delta api.StreamDelta
		if err := json.Unmarshal([]byte(data), &delta); err != nil {
			return false, &termError{err: fmt.Errorf("client: decode stream delta: %w", err)}
		}
		if delta.Epoch <= *last {
			return false, nil
		}
		*last = delta.Epoch
		if err := fn(StreamEvent{Type: api.EventDelta, Epoch: delta.Epoch, Delta: &delta}); err != nil {
			return true, &termError{err: err}
		}
		return true, nil
	default:
		return false, nil // unknown event types are forward-compatible noise
	}
}
