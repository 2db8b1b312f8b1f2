package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/wifi"
)

// batchLine marshals one report as an NDJSON line.
func batchLine(t *testing.T, rep api.Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func postBatch(t *testing.T, url string, body []byte) (*http.Response, api.BatchResponse) {
	t.Helper()
	resp, err := http.Post(url+api.PathReportsBatch, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.BatchResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusTooManyRequests {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, out
}

// TestBatchMixedVerdicts drives one NDJSON batch containing every kind of
// line — valid, blank, malformed JSON, a validation reject, an unknown
// route, and a torn (newline-less) tail — and asserts 200 partial-accept
// semantics: Received covers every line, accepted lines are elided from
// Items, and each bad line carries its own verdict at its own index.
func TestBatchMixedVerdicts(t *testing.T) {
	w := newWorld(t, 60)
	ts := httptest.NewServer(Handler(w.svc))
	defer ts.Close()

	var body []byte
	body = append(body, batchLine(t, api.Report{BusID: "b1", RouteID: w.route.ID(), PhoneID: "p1",
		Scan: wifi.Scan{Time: t0}})...) // 0: valid
	body = append(body, '\n')                            // 1: blank, skipped silently
	body = append(body, []byte("{torn json\n")...)       // 2: malformed
	body = append(body, batchLine(t, api.Report{BusID: "b1", RouteID: w.route.ID(), PhoneID: "p2",
		Scan: wifi.Scan{Time: t0, Readings: []wifi.Reading{{BSSID: "ap", RSSI: 9999}}}})...) // 3: invalid RSSI
	body = append(body, batchLine(t, api.Report{BusID: "b2", RouteID: "no-such-route", PhoneID: "p3",
		Scan: wifi.Scan{Time: t0}})...) // 4: unknown route
	tail := batchLine(t, api.Report{BusID: "b3", RouteID: w.route.ID(), PhoneID: "p4",
		Scan: wifi.Scan{Time: t0}})
	body = append(body, tail[:len(tail)-1]...) // 5: valid, torn tail without trailing newline

	resp, out := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch: got %d, want 200", resp.StatusCode)
	}
	if out.Received != 6 {
		t.Errorf("Received = %d, want 6", out.Received)
	}
	if out.Accepted != 2 {
		t.Errorf("Accepted = %d, want 2 (the two valid reports)", out.Accepted)
	}
	if out.Rejected != 3 {
		t.Errorf("Rejected = %d, want 3", out.Rejected)
	}
	if len(out.Items) != 3 {
		t.Fatalf("Items = %+v, want exactly the 3 bad lines", out.Items)
	}
	wantIdx := []int{2, 3, 4}
	for i, it := range out.Items {
		if it.Index != wantIdx[i] {
			t.Errorf("Items[%d].Index = %d, want %d", i, it.Index, wantIdx[i])
		}
		if it.Error == "" {
			t.Errorf("Items[%d] carries no error: %+v", i, it)
		}
	}

	// The ledger: one offered, one served, five non-blank report lines.
	hs := w.svc.HTTPStats()
	if hs.BatchOffered != 1 || hs.BatchServed != 1 || hs.BatchShed != 0 {
		t.Errorf("batch ledger = offered %d served %d shed %d, want 1/1/0",
			hs.BatchOffered, hs.BatchServed, hs.BatchShed)
	}
	if hs.BatchReports != 5 {
		t.Errorf("BatchReports = %d, want 5", hs.BatchReports)
	}
	// Both valid reports really reached per-bus state, and the ingest
	// ledger matches the per-line verdicts.
	st := w.svc.Stats()
	if st.Accepted != 2 || st.Rejected != 2 || st.Registered != 2 {
		t.Errorf("ingest ledger = accepted %d rejected %d registered %d, want 2/2/2",
			st.Accepted, st.Rejected, st.Registered)
	}
}

// TestBatchOversize413 covers both batch size gates: too many NDJSON
// lines, and a body over the batch byte cap. Each is a counted 413, and
// neither reaches ingestion.
func TestBatchOversize413(t *testing.T) {
	w := newWorld(t, 61)
	ts := httptest.NewServer(NewHandler(w.svc, HandlerConfig{
		BatchMaxReports:   4,
		BatchMaxBodyBytes: 512,
	}))
	defer ts.Close()

	line := batchLine(t, api.Report{BusID: "b", RouteID: w.route.ID(), PhoneID: "p",
		Scan: wifi.Scan{Time: t0}})

	resp, _ := postBatch(t, ts.URL, bytes.Repeat(line, 5))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("5 lines over a 4-line cap: got %d, want 413", resp.StatusCode)
	}
	if got := w.svc.HTTPStats().TooLarge; got != 1 {
		t.Errorf("TooLarge counter = %d, want 1", got)
	}

	huge := append([]byte(nil), line...)
	huge = append(huge, bytes.Repeat([]byte(" "), 1024)...) // pad past the byte cap
	resp, _ = postBatch(t, ts.URL, huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch body: got %d, want 413", resp.StatusCode)
	}
	if got := w.svc.HTTPStats().TooLarge; got != 2 {
		t.Errorf("TooLarge counter = %d, want 2", got)
	}
	if n := len(w.svc.Vehicles("")); n != 0 {
		t.Errorf("oversized batches registered %d buses", n)
	}
}

// parkingGC is a GroupCommit whose window does not open until release is
// closed: a request inside it holds its admission slot.
type parkingGC struct {
	entered chan struct{}
	release chan struct{}
}

func (g *parkingGC) BeginBatch() {
	close(g.entered)
	<-g.release
}

func (g *parkingGC) EndBatch() error { return nil }

// countingReader counts the bytes a handler read from a request body.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// parkAtAdmissionBound builds a handler with an in-flight bound of one and
// parks a one-line batch from bus "b" inside its group-commit window, so the
// bound is full. release lets the parked batch finish (it is also called at
// cleanup); parked yields its response once it has.
func parkAtAdmissionBound(t *testing.T, seed uint64) (w *world, h http.Handler, release func(), parked <-chan *httptest.ResponseRecorder) {
	t.Helper()
	w = newWorld(t, seed)
	gc := &parkingGC{entered: make(chan struct{}), release: make(chan struct{})}
	h = NewHandler(w.svc, HandlerConfig{MaxInFlightReports: 1, GroupCommit: gc})
	var once sync.Once
	release = func() { once.Do(func() { close(gc.release) }) }
	t.Cleanup(release)

	line := batchLine(t, api.Report{BusID: "b", RouteID: w.route.ID(), PhoneID: "p",
		Scan: wifi.Scan{Time: t0}})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", api.PathReportsBatch, bytes.NewReader(line)))
		done <- rec
	}()
	select {
	case <-gc.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first batch never reached its group-commit window")
	}
	return w, h, release, done
}

// awaitParked waits for the parked batch of parkAtAdmissionBound to finish
// and asserts it was served 200.
func awaitParked(t *testing.T, parked <-chan *httptest.ResponseRecorder) {
	t.Helper()
	select {
	case rec := <-parked:
		if rec.Code != http.StatusOK {
			t.Fatalf("parked batch finished %d, want 200", rec.Code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked batch never finished after release")
	}
}

// TestBatchShedAtAdmissionBound: with one request in flight at the bound, a
// second batch is refused with 429 + Retry-After before a byte of its body
// is read, and counted as shed; the parked request still finishes 200 once
// it can proceed.
func TestBatchShedAtAdmissionBound(t *testing.T) {
	w, h, release, parked := parkAtAdmissionBound(t, 62)

	line := batchLine(t, api.Report{BusID: "b", RouteID: w.route.ID(), PhoneID: "p",
		Scan: wifi.Scan{Time: t0}})
	body := &countingReader{r: bytes.NewReader(bytes.Repeat(line, 3))}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", api.PathReportsBatch, body))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("batch over the admission bound: got %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	if n := body.n.Load(); n != 0 {
		t.Errorf("shed batch had %d body bytes read, want 0", n)
	}
	hs := w.svc.HTTPStats()
	if hs.BatchShed != 1 {
		t.Errorf("BatchShed = %d, want 1", hs.BatchShed)
	}
	if hs.BatchShed+hs.BatchServed > hs.BatchOffered {
		t.Errorf("ledger shed %d + served %d > offered %d", hs.BatchShed, hs.BatchServed, hs.BatchOffered)
	}

	release()
	awaitParked(t, parked)
}

// TestBatchBackpressure429: both doors share the one in-flight bound, so
// while a batch holds it a single-report POST is refused with 429 +
// Retry-After too. The shed is counted on the report door's ledger, not the
// batch door's, and the refused report never reaches per-bus state.
func TestBatchBackpressure429(t *testing.T) {
	w, h, release, parked := parkAtAdmissionBound(t, 63)

	rep, err := json.Marshal(api.Report{BusID: "bus-bp", RouteID: w.route.ID(), PhoneID: "p",
		Scan: wifi.Scan{Time: t0}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", api.PathReports, bytes.NewReader(rep)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("single report while a batch holds the bound: got %d, want 429", rec.Code)
	}
	if sec, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || sec < 1 {
		t.Errorf("Retry-After = %q, want a whole number of seconds >= 1", rec.Header().Get("Retry-After"))
	}
	hs := w.svc.HTTPStats()
	if hs.Offered != 1 || hs.Shed != 1 || hs.Served != 0 {
		t.Errorf("report ledger = offered %d shed %d served %d, want 1/1/0", hs.Offered, hs.Shed, hs.Served)
	}
	if hs.BatchShed != 0 {
		t.Errorf("BatchShed = %d, want 0 (the shed came through the report door)", hs.BatchShed)
	}

	release()
	awaitParked(t, parked)
	if st := w.svc.Stats(); st.Registered != 1 {
		t.Errorf("%d buses registered, want 1 (the refused report's bus must not be)", st.Registered)
	}
}

// TestBatchOutrightShed429: a batch refused at the bound is shed whole —
// none of its lines is ingested — and the batch ledger balances exactly:
// offered 2, shed 1, served 0 while the parked batch waits, and served 1
// once it finishes, so shed + served == offered at quiescence.
func TestBatchOutrightShed429(t *testing.T) {
	w, h, release, parked := parkAtAdmissionBound(t, 66)

	var body []byte
	for i := 0; i < 3; i++ {
		body = append(body, batchLine(t, api.Report{BusID: fmt.Sprintf("shed-%d", i), RouteID: w.route.ID(),
			PhoneID: "p", Scan: wifi.Scan{Time: t0}})...)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", api.PathReportsBatch, bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("batch over the admission bound: got %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed response without Retry-After")
	}
	hs := w.svc.HTTPStats()
	if hs.BatchOffered != 2 || hs.BatchShed != 1 || hs.BatchServed != 0 {
		t.Errorf("ledger while parked = offered %d shed %d served %d, want 2/1/0",
			hs.BatchOffered, hs.BatchShed, hs.BatchServed)
	}

	release()
	awaitParked(t, parked)
	hs = w.svc.HTTPStats()
	if hs.BatchOffered != 2 || hs.BatchShed != 1 || hs.BatchServed != 1 {
		t.Errorf("ledger at quiescence = offered %d shed %d served %d, want 2/1/1",
			hs.BatchOffered, hs.BatchShed, hs.BatchServed)
	}
	if st := w.svc.Stats(); st.Accepted != 1 || st.Registered != 1 {
		t.Errorf("ingest ledger = accepted %d registered %d, want 1/1 (only the parked batch's line)",
			st.Accepted, st.Registered)
	}
}

// fakeGC counts group-commit windows and can fail the closing fsync.
type fakeGC struct {
	mu     sync.Mutex
	begins int
	ends   int
	err    error
}

func (g *fakeGC) BeginBatch() {
	g.mu.Lock()
	g.begins++
	g.mu.Unlock()
}

func (g *fakeGC) EndBatch() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ends++
	return g.err
}

// TestBatchGroupCommitWiring: every batch POST opens exactly one fsync
// window and closes it before the acknowledgement; a failed EndBatch turns
// the would-be 200 into 503 + Retry-After, because the records may not be
// durable and the client must resend.
func TestBatchGroupCommitWiring(t *testing.T) {
	w := newWorld(t, 64)
	gc := &fakeGC{}
	ts := httptest.NewServer(NewHandler(w.svc, HandlerConfig{GroupCommit: gc}))
	defer ts.Close()

	line := batchLine(t, api.Report{BusID: "b", RouteID: w.route.ID(), PhoneID: "p",
		Scan: wifi.Scan{Time: t0}})
	resp, out := postBatch(t, ts.URL, bytes.Repeat(line, 3))
	if resp.StatusCode != http.StatusOK || out.Accepted != 3 {
		t.Fatalf("batch with group commit: %d, %+v", resp.StatusCode, out)
	}
	if gc.begins != 1 || gc.ends != 1 {
		t.Errorf("group-commit windows = %d begins / %d ends, want 1/1", gc.begins, gc.ends)
	}

	gc.err = fmt.Errorf("fsync: device gone")
	resp, _ = postBatch(t, ts.URL, line)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failed group fsync: got %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 after failed fsync without Retry-After")
	}
	if gc.begins != 2 || gc.ends != 2 {
		t.Errorf("windows after failure = %d/%d, want 2/2 (no double close)", gc.begins, gc.ends)
	}
}

// TestBatchDuringRebuild hammers the batch endpoint while Rebuild hot-swaps
// the engine generation, asserting zero drops: every posted line is
// acknowledged Accepted even when its ingest straddles the swap. Run under
// -race this also proves the pooled decode buffers and the readings arena
// never share state across the swap.
func TestBatchDuringRebuild(t *testing.T) {
	w := newWorld(t, 65)
	ts := httptest.NewServer(Handler(w.svc))
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := w.svc.Rebuild(context.Background()); err != nil && err != ErrRebuildInProgress {
				t.Errorf("Rebuild: %v", err)
				return
			}
		}
	}()

	const batches, lines = 8, 32
	posted, accepted := 0, 0
	for bn := 0; bn < batches; bn++ {
		var body []byte
		for ln := 0; ln < lines; ln++ {
			body = append(body, batchLine(t, api.Report{
				BusID:   fmt.Sprintf("bus-%d", ln%4),
				RouteID: w.route.ID(),
				PhoneID: fmt.Sprintf("p-%d-%d", bn, ln),
				Scan: wifi.Scan{
					Time:     t0.Add(time.Duration(bn*lines+ln) * time.Second),
					Readings: []wifi.Reading{{BSSID: "ap-1", RSSI: -60}},
				},
			})...)
			posted++
		}
		resp, out := postBatch(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d during rebuild churn: got %d, want 200", bn, resp.StatusCode)
		}
		if len(out.Items) != 0 {
			t.Fatalf("batch %d dropped lines during rebuild: %+v", bn, out.Items)
		}
		accepted += out.Accepted
	}
	close(stop)
	wg.Wait()
	if accepted != posted {
		t.Errorf("accepted %d of %d lines across rebuilds, want all", accepted, posted)
	}
}

// TestDrainMeterScales pins the Retry-After model: no observations → the
// configured floor; then the hint tracks depth / measured drain rate,
// clamped to [floor, 60s].
func TestDrainMeterScales(t *testing.T) {
	now := t0
	var drained uint64
	m := newDrainMeter(func() time.Time { return now }, func() uint64 { return drained })

	if got := m.retryAfterSec(500, time.Second); got != 1 {
		t.Errorf("hint before any drain observation = %d, want floor 1", got)
	}
	// One second passes, 100 reports drain: rate = 100/s.
	now = now.Add(time.Second)
	drained = 100
	if got := m.retryAfterSec(500, time.Second); got < 5 || got > 7 {
		t.Errorf("hint at depth 500, rate 100/s = %ds, want ~5-7", got)
	}
	// Shallow queues never dip under the floor.
	if got := m.retryAfterSec(1, 2*time.Second); got != 2 {
		t.Errorf("shallow-queue hint = %d, want floor 2", got)
	}
	// Absurd depth clamps at the cap.
	if got := m.retryAfterSec(1_000_000, time.Second); got != maxRetryAfterSec {
		t.Errorf("deep-queue hint = %d, want cap %d", got, maxRetryAfterSec)
	}
}
