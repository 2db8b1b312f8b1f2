package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wilocator/internal/api"
)

// GroupCommit amortises WAL fsyncs across one ingest batch: the batch
// handler opens a window before processing its lines and closes it before
// acknowledging them, so a whole batch is made durable by one fsync
// instead of one per SyncEvery records. traveltime.Persister implements
// it; EndBatch's error means the fsync failed and the batch must NOT be
// acknowledged as durable.
type GroupCommit interface {
	BeginBatch()
	EndBatch() error
}

// drainMeter turns queue depth into a Retry-After hint that scales with
// the measured drain rate instead of a fixed constant: a client shed at
// depth D while the server drains R reports/sec should come back in ~D/R
// seconds, not in a magic 1 s. The rate is an EWMA over a monotone
// "work completed" counter; now is injected for deterministic tests.
type drainMeter struct {
	now     func() time.Time
	drained func() uint64

	mu   sync.Mutex
	t0   time.Time
	c0   uint64
	rate float64 // reports/sec
}

// meterMinWindow is the shortest sampling window the meter updates its
// rate estimate from; calls inside the window reuse the previous estimate
// so one burst of 429s cannot thrash it.
const meterMinWindow = 100 * time.Millisecond

// maxRetryAfterSec caps the hint: past a minute the client should be
// spreading load, not sitting on a timer the server invented.
const maxRetryAfterSec = 60

func newDrainMeter(now func() time.Time, drained func() uint64) *drainMeter {
	return &drainMeter{now: now, drained: drained}
}

// retryAfterSec returns the whole-second Retry-After hint for a queue of
// depth reports, at least ceil(floor) and at most maxRetryAfterSec.
func (m *drainMeter) retryAfterSec(depth int, floor time.Duration) int {
	floorSec := int((floor + time.Second - 1) / time.Second)
	if floorSec < 1 {
		floorSec = 1
	}
	m.mu.Lock()
	t, c := m.now(), m.drained()
	if m.t0.IsZero() {
		m.t0, m.c0 = t, c
	} else if dt := t.Sub(m.t0); dt >= meterMinWindow {
		inst := float64(c-m.c0) / dt.Seconds()
		if m.rate == 0 {
			m.rate = inst
		} else {
			m.rate = 0.5*m.rate + 0.5*inst
		}
		m.t0, m.c0 = t, c
	}
	rate := m.rate
	m.mu.Unlock()
	if rate <= 0 || depth <= 0 {
		// No drain observed yet (startup, or a frozen test clock): the
		// configured floor is the only honest hint.
		return floorSec
	}
	sec := int(float64(depth)/rate + 1)
	if sec < floorSec {
		sec = floorSec
	}
	if sec > maxRetryAfterSec {
		sec = maxRetryAfterSec
	}
	return sec
}

// ingestLine is one decoded report of a request and the verdict it got.
type ingestLine struct {
	rep  api.Report
	idx  int // zero-based NDJSON line index within the body
	resp api.IngestResponse
	err  error
}

// ingestCall is the pooled per-request state of one report POST, single or
// batch: the body buffer, the line decoder with its intern tables, the
// decoded-line slab and the batch response scratch. Nothing outlives the
// request that owns it, so steady state, a request allocates nothing here.
type ingestCall struct {
	body  bytes.Buffer
	dec   *api.ReportDecoder
	lines []ingestLine
	used  int
	resp  api.BatchResponse
}

//wilint:hotpath
func (c *ingestCall) reset() {
	c.body.Reset()
	c.used = 0
	c.resp = api.BatchResponse{Items: c.resp.Items[:0]}
}

// line hands out the next slab slot for NDJSON line idx.
//
//wilint:hotpath
func (c *ingestCall) line(idx int) *ingestLine {
	if c.used == len(c.lines) {
		c.lines = append(c.lines, ingestLine{}) // grows on first use, recycled with the pooled call
	}
	ln := &c.lines[c.used]
	c.used++
	ln.idx, ln.resp, ln.err = idx, api.IngestResponse{}, nil
	return ln
}

// door is one HTTP entrance to the ingest engine: its healthz ledger and
// its body limit. Both doors share the engine's one in-flight bound.
type door struct {
	what                  string // "report" or "batch", for messages
	batch                 bool
	maxBody               int64
	offered, served, shed *atomic.Uint64
}

// errLinePanic is the verdict of a line whose dispatch panicked.
var errLinePanic = errors.New("server: internal error ingesting report")

// ingester is the one synchronous ingest engine behind POST /v1/reports
// and POST /v1/reports/batch. A request is admitted against one bound on
// requests in flight, its body is decoded into a pooled slab, and its
// lines are dispatched in line order by the submitting goroutine — which
// keeps each bus's reports in order without any queue.
type ingester struct {
	svc        *Service
	hc         HandlerConfig
	sem        chan struct{}
	meter      *drainMeter
	calls      sync.Pool
	retryAfter string // the fixed hint on a batch's failed-fsync 503
}

func newIngester(s *Service, hc HandlerConfig, retryAfter string) *ingester {
	e := &ingester{
		svc:        s,
		hc:         hc,
		sem:        make(chan struct{}, hc.MaxInFlightReports),
		meter:      newDrainMeter(s.cfg.Now, s.http.linesDispatched.Load),
		retryAfter: retryAfter,
	}
	e.calls.New = func() any { return &ingestCall{dec: api.NewReportDecoder()} }
	return e
}

// serve returns the handler of one door.
func (e *ingester) serve(d door) http.HandlerFunc {
	s := e.svc
	return func(w http.ResponseWriter, r *http.Request) {
		// offered is incremented before the admission decision and
		// shed/served exactly once after it, so shed + served <= offered at
		// every instant (and == at quiescence). HTTPStats loads in the
		// reverse order.
		d.offered.Add(1)
		select {
		case e.sem <- struct{}{}:
			defer func() { <-e.sem }()
		default:
			// Refused before the body is read: the client resends it whole.
			d.shed.Add(1)
			sec := e.meter.retryAfterSec(int(s.http.pendingLines()), e.hc.RetryAfter)
			w.Header().Set("Retry-After", strconv.Itoa(sec))
			writeErr(w, http.StatusTooManyRequests, d.what+" ingestion saturated; retry later")
			return
		}
		// Admitted: every exit below is a response, even an error one.
		defer d.served.Add(1)

		call := e.calls.Get().(*ingestCall)
		defer e.calls.Put(call)
		call.reset()
		r.Body = http.MaxBytesReader(w, r.Body, d.maxBody)
		if _, err := call.body.ReadFrom(r.Body); err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				s.http.tooLarge.Add(1)
				writeErr(w, http.StatusRequestEntityTooLarge,
					d.what+" body exceeds "+strconv.FormatInt(d.maxBody, 10)+" bytes")
				return
			}
			writeErr(w, http.StatusBadRequest, "invalid "+d.what+" body: "+err.Error())
			return
		}
		if d.batch {
			e.serveBatch(w, r, call)
		} else {
			e.serveReport(w, r, call)
		}
	}
}

// serveReport answers a single report: a one-line frame whose whole body is
// the line, with no group-commit window — the travel-time records it
// produces are fsynced with the SyncEvery batch they fall in, not before
// the 200.
func (e *ingester) serveReport(w http.ResponseWriter, r *http.Request, call *ingestCall) {
	ln := call.line(0)
	if err := call.dec.Decode(&ln.rep, call.body.Bytes()); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid report body: "+err.Error())
		return
	}
	e.dispatch(r.Context(), call)
	switch {
	case ln.err == nil:
		writeJSON(w, http.StatusOK, ln.resp)
	case errors.Is(ln.err, errLinePanic):
		writeErr(w, http.StatusInternalServerError, "internal error")
	default:
		writeErr(w, http.StatusBadRequest, ln.err.Error())
	}
}

// serveBatch answers an NDJSON frame: every line gets a verdict, and with a
// GroupCommit every record the frame produced is fsynced before the 200.
func (e *ingester) serveBatch(w http.ResponseWriter, r *http.Request, call *ingestCall) {
	s := e.svc
	data := call.body.Bytes()
	received := countNDJSONLines(data)
	if received > e.hc.BatchMaxReports {
		s.http.tooLarge.Add(1)
		writeErr(w, http.StatusRequestEntityTooLarge,
			"batch has "+strconv.Itoa(received)+" lines, cap is "+strconv.Itoa(e.hc.BatchMaxReports)+
				"; split it and resend")
		return
	}
	for idx := 0; len(data) > 0; idx++ {
		var line []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			line, data = data, nil // torn tail: still one line's verdict
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue // blank lines are received, silently
		}
		s.http.batchReports.Add(1)
		ln := call.line(idx)
		ln.err = call.dec.Decode(&ln.rep, line) // a malformed line is its own verdict
	}

	// Group-commit window: every record the frame's lines produce is
	// covered by one fsync at EndBatch, before the acknowledgement below.
	gc := e.hc.GroupCommit
	ended := false
	if gc != nil {
		gc.BeginBatch()
		defer func() {
			if !ended {
				// Unwinding without the explicit EndBatch below: close the
				// window so count-triggered fsyncs resume. The error only
				// matters on the ack path.
				_ = gc.EndBatch()
			}
		}()
	}
	e.dispatch(r.Context(), call)
	if gc != nil {
		ended = true
		if err := gc.EndBatch(); err != nil {
			// The group fsync failed: records may not be durable, so the
			// batch must not be acknowledged. Upload is at-least-once by
			// design — the client retries and the fusion window dedups.
			w.Header().Set("Retry-After", e.retryAfter)
			writeErr(w, http.StatusServiceUnavailable, "batch not durable: "+err.Error())
			return
		}
	}

	resp := &call.resp
	resp.Received = received
	for i := range call.lines[:call.used] {
		ln := &call.lines[i]
		switch {
		case ln.err != nil:
			resp.Rejected++
			resp.Items = append(resp.Items, api.BatchItem{Index: ln.idx, Error: ln.err.Error()})
		case ln.resp.Accepted:
			resp.Accepted++
			if ln.resp.Located {
				resp.Located++
			}
		case ln.resp.Reason == api.ReasonLateScan:
			resp.LateDropped++
			resp.Items = append(resp.Items, api.BatchItem{Index: ln.idx, Reason: ln.resp.Reason})
		default:
			resp.Rejected++
			resp.Items = append(resp.Items, api.BatchItem{Index: ln.idx, Reason: ln.resp.Reason, Error: "report not accepted"})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// dispatch ingests the call's decoded lines in line order, in the calling
// goroutine. Lines whose decode failed keep that verdict.
//
//wilint:hotpath
func (e *ingester) dispatch(ctx context.Context, call *ingestCall) {
	lines := call.lines[:call.used]
	n := uint64(0)
	for i := range lines {
		if lines[i].err == nil {
			n++
		}
	}
	e.svc.http.linesAdmitted.Add(n)
	for i := range lines {
		if lines[i].err == nil {
			e.dispatchLine(ctx, &lines[i])
		}
	}
}

// dispatchLine is the one place a report reaches the service. A panic becomes the line's verdict, counted with the handler
// panics, so the rest of the request still gets answered.
//
//wilint:hotpath
func (e *ingester) dispatchLine(ctx context.Context, ln *ingestLine) {
	defer func() {
		if v := recover(); v != nil {
			e.svc.http.panics.Add(1)
			ln.err = errLinePanic
		}
		e.svc.http.linesDispatched.Add(1)
	}()
	ln.resp, ln.err = e.svc.IngestCtx(ctx, ln.rep)
}

// countNDJSONLines counts the newline-separated lines of data, a torn
// (newline-less) tail included.
func countNDJSONLines(data []byte) int {
	n := bytes.Count(data, []byte{"\n"[0]})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}
