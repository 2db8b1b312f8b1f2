package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"wilocator/internal/api"
)

// PostReportBatch uploads reports as one (or, under backpressure, several)
// NDJSON frames to POST /v1/reports/batch. A 429 mid-batch carries a
// resume cursor — the number of lines the server attempted — and the
// client resumes from there after honoring Retry-After, so a saturated
// server never forces the caller to resend work it already absorbed.
//
// The returned BatchResponse aggregates every frame: counters are summed
// and per-line Items are re-indexed to positions in reps, whichever frame
// they were answered in. Retries follow the client's RetryConfig; attempts
// that make progress (a resume cursor > 0) reset the attempt budget,
// because a draining server is one worth waiting for.
func (c *Client) PostReportBatch(ctx context.Context, reps []api.Report) (api.BatchResponse, error) {
	var agg api.BatchResponse
	if len(reps) == 0 {
		return agg, nil
	}
	lines := make([][]byte, len(reps))
	for i, rep := range reps {
		b, err := json.Marshal(rep)
		if err != nil {
			return agg, fmt.Errorf("client: marshal report %d: %w", i, err)
		}
		lines[i] = b
	}

	start := 0
	attempt := 0
	wait := c.retry.BaseDelay
	var body bytes.Buffer
	for start < len(lines) {
		body.Reset()
		for _, line := range lines[start:] {
			body.Write(line)
			body.WriteByte('\n')
		}
		attempt++
		i, base := c.node()
		resp, err, retryable, retryAfter := c.attemptBatch(ctx, base, body.Bytes())
		if err == nil || retryable {
			// Full or partial progress: fold this frame's verdicts in.
			mergeBatch(&agg, resp, start)
			if err == nil {
				if resp.Received < len(lines)-start {
					return agg, fmt.Errorf("client: POST %s: server acknowledged %d of %d lines on a 200",
						api.PathReportsBatch, resp.Received, len(lines)-start)
				}
				return agg, nil
			}
			if resp.Received > 0 {
				start += resp.Received
				attempt = 0 // progress: a fresh retry budget for the rest
				wait = c.retry.BaseDelay
			}
		}
		retryAfter = c.failed(i, err, retryable, retryAfter)
		if !retryable || attempt >= c.retry.MaxAttempts || ctx.Err() != nil {
			return agg, err
		}
		d := wait
		if retryAfter > 0 {
			d = retryAfter
		}
		if d > c.retry.MaxDelay {
			d = c.retry.MaxDelay
		}
		d = d/2 + time.Duration(c.retry.Rand()*float64(d/2))
		if serr := c.retry.Sleep(ctx, d); serr != nil {
			return agg, err
		}
		wait *= 2
		if wait > c.retry.MaxDelay {
			wait = c.retry.MaxDelay
		}
	}
	return agg, nil
}

// attemptBatch makes one batch round trip. On 429 the response body is
// still a BatchResponse (the partial verdicts plus the resume cursor), so
// unlike attempt it decodes the envelope on that status too.
func (c *Client) attemptBatch(ctx context.Context, base string, body []byte) (resp api.BatchResponse, err error, retryable bool, retryAfter time.Duration) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+api.PathReportsBatch, bytes.NewReader(body))
	if err != nil {
		return resp, fmt.Errorf("client: new request: %w", err), false, 0
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	hres, err := c.hc.Do(req)
	if err != nil {
		retryable := ctx.Err() == nil
		return resp, fmt.Errorf("client: POST %s: %w", api.PathReportsBatch, err), retryable, 0
	}
	defer hres.Body.Close()
	switch hres.StatusCode {
	case http.StatusOK:
		if derr := json.NewDecoder(hres.Body).Decode(&resp); derr != nil {
			return resp, fmt.Errorf("client: decode batch response: %w", derr), false, 0
		}
		return resp, nil, false, 0
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		if secs, aerr := strconv.Atoi(hres.Header.Get("Retry-After")); aerr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		raw, _ := io.ReadAll(io.LimitReader(hres.Body, 1<<20))
		serr := &StatusError{Method: http.MethodPost, Path: api.PathReportsBatch, StatusCode: hres.StatusCode}
		// A mid-batch 429 body is the partial BatchResponse; an outright
		// shed (or a 503) carries the plain error envelope instead. Either
		// way resp is usable: zero values mean "nothing was attempted".
		if jerr := json.Unmarshal(raw, &resp); jerr != nil || resp.Received == 0 {
			var apiErr api.Error
			_ = json.Unmarshal(raw, &apiErr)
			serr.Message = apiErr.Message
		}
		if resp.RetryAfterSec > 0 && retryAfter == 0 {
			retryAfter = time.Duration(resp.RetryAfterSec) * time.Second
		}
		return resp, serr, true, retryAfter
	default:
		var apiErr api.Error
		_ = json.NewDecoder(hres.Body).Decode(&apiErr)
		return resp, &StatusError{Method: http.MethodPost, Path: api.PathReportsBatch,
			StatusCode: hres.StatusCode, Message: apiErr.Message}, false, 0
	}
}

// mergeBatch folds one frame's response into the aggregate, shifting item
// indices by the frame's offset into the original report slice.
func mergeBatch(agg *api.BatchResponse, r api.BatchResponse, offset int) {
	agg.Received += r.Received
	agg.Accepted += r.Accepted
	agg.Located += r.Located
	agg.LateDropped += r.LateDropped
	agg.Rejected += r.Rejected
	for _, it := range r.Items {
		it.Index += offset
		agg.Items = append(agg.Items, it)
	}
}

// A BatchSender accumulates reports and ships them as NDJSON batches of
// FlushEvery, amortising one HTTP round trip (and, server-side, one WAL
// fsync) over a whole frame. It is safe for concurrent Add; flushes happen
// inline on the adding goroutine that filled the batch.
type BatchSender struct {
	c     *Client
	every int

	mu   sync.Mutex
	buf  []api.Report
	sent int // reports shipped in completed flushes (item re-indexing base)
	agg  api.BatchResponse
}

// NewBatchSender returns a sender flushing every flushEvery reports (min 1;
// values <= 0 select 256). Call Flush before reading Totals to push out the
// partial tail.
func (c *Client) NewBatchSender(flushEvery int) *BatchSender {
	if flushEvery <= 0 {
		flushEvery = 256
	}
	return &BatchSender{c: c, every: flushEvery, buf: make([]api.Report, 0, flushEvery)}
}

// Add buffers one report, flushing inline when the batch is full. The
// returned error is the flush's — reports buffered by other goroutines
// during a failed flush stay buffered for the next one.
func (s *BatchSender) Add(ctx context.Context, rep api.Report) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf, rep)
	if len(s.buf) < s.every {
		return nil
	}
	return s.flushLocked(ctx)
}

// Flush ships whatever is buffered, if anything.
func (s *BatchSender) Flush(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return nil
	}
	return s.flushLocked(ctx)
}

func (s *BatchSender) flushLocked(ctx context.Context) error {
	resp, err := s.c.PostReportBatch(ctx, s.buf)
	if err != nil {
		return err
	}
	mergeBatch(&s.agg, resp, s.sent)
	s.sent += len(s.buf)
	s.buf = s.buf[:0]
	return nil
}

// Totals returns the running aggregate over every flushed batch, item
// indices counted over all reports Added in order.
func (s *BatchSender) Totals() api.BatchResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.agg
	out.Items = append([]api.BatchItem(nil), s.agg.Items...)
	return out
}
