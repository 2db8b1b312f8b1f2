package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/obs"
	"wilocator/internal/traveltime"
	"wilocator/internal/wifi"
)

// newObsWorld is newWorld with metrics and tracing enabled.
func newObsWorld(t *testing.T, seed uint64) *world {
	t.Helper()
	w := newWorld(t, seed)
	svc, err := NewService(w.dia, w.store, Config{
		Now:     w.now,
		Metrics: obs.NewRegistry(),
		Tracer:  obs.NewTracer(256),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.svc = svc
	return w
}

// scrape fetches and parses /metrics through the handler, returning each
// series ("name" or `name{label="v"}`) mapped to its value.
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", api.PathMetrics, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Content-Type"); got != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", got, obs.ContentType)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

func TestMetricsEndpoint(t *testing.T) {
	w := newObsWorld(t, 11)
	w.runBus(t, "bus-1", t0, 3, 7)

	// Drive the ingest-reject and predict paths too.
	if _, err := w.svc.Ingest(api.Report{BusID: "b", RouteID: "nope",
		Scan: wifi.Scan{Time: t0}}); err == nil {
		t.Fatal("unknown route accepted")
	}
	if _, err := w.svc.Arrivals(w.route.ID(), w.route.NumStops()-1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.svc.TrafficMap(""); err != nil {
		t.Fatal(err)
	}

	// Read before scraping: the gauge reports the published snapshot and a
	// scrape never publishes one.
	active := w.svc.ActiveBuses()
	h := Handler(w.svc)
	series := scrape(t, h)
	st := w.svc.Stats()

	get := func(key string) float64 {
		t.Helper()
		v, ok := series[key]
		if !ok {
			t.Fatalf("series %q missing from /metrics", key)
		}
		return v
	}
	if got := get(`wilocator_ingest_reports_total{outcome="accepted"}`); got != float64(st.Accepted) {
		t.Errorf("accepted series = %v, Stats says %d", got, st.Accepted)
	}
	if got := get(`wilocator_ingest_reports_total{outcome="rejected"}`); got != float64(st.Rejected) {
		t.Errorf("rejected series = %v, Stats says %d", got, st.Rejected)
	}
	if got := get("wilocator_ingest_fixes_total"); got != float64(st.Located) {
		t.Errorf("fixes series = %v, Stats says %d", got, st.Located)
	}

	// Each fusion flush performs exactly one diagram lookup, so the lookup
	// counters must sum to the flush count.
	var lookups float64
	for _, m := range []string{"exact", "tie", "reduced", "neighbor", "no_fix"} {
		lookups += get(`wilocator_locate_lookups_total{method="` + m + `"}`)
	}
	if lookups != float64(st.Flushes) {
		t.Errorf("locate lookups sum to %v, flushes = %d", lookups, st.Flushes)
	}

	// The ingest latency histogram saw every IngestCtx call.
	ingested := st.Accepted + st.Rejected + st.LateDropped
	if got := get("wilocator_ingest_seconds_count"); got != float64(ingested) {
		t.Errorf("ingest_seconds_count = %v, want %d", got, ingested)
	}
	if got := get("wilocator_predict_seconds_count"); got < 1 {
		t.Errorf("predict_seconds_count = %v, want >= 1", got)
	}
	if get(`wilocator_trafficmap_segments_total{condition="normal"}`)+
		get(`wilocator_trafficmap_segments_total{condition="slow"}`)+
		get(`wilocator_trafficmap_segments_total{condition="very_slow"}`)+
		get(`wilocator_trafficmap_segments_total{condition="unknown"}`) == 0 {
		t.Error("traffic-map classification counters all zero after TrafficMap")
	}
	if got := get("wilocator_active_buses"); got != float64(active) {
		t.Errorf("active_buses = %v, want %d", got, active)
	}
}

// TestScrapeDoesNotPublish: a /metrics scrape is not a reader. On a service
// whose snapshot is dirty, writing the exposition leaves the publish count
// where it was; the next real read still publishes.
func TestScrapeDoesNotPublish(t *testing.T) {
	w := newObsWorld(t, 13)
	w.runBusHalf(t, "bus-1", t0, 2, 5)
	w.svc.Vehicles("")
	w.svc.InvalidateReadSnapshot()
	before := w.svc.ReadStats().Publishes
	if err := w.svc.Registry().WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := w.svc.ReadStats().Publishes; got != before {
		t.Errorf("scrape moved publishes %d -> %d on a dirty service", before, got)
	}
	w.svc.Vehicles("")
	if got := w.svc.ReadStats().Publishes; got != before+1 {
		t.Errorf("publishes %d -> %d after the next read, want one more", before, got)
	}
}

// TestMetricsSurviveRebuild pins the monotone-across-hot-swap guarantee: the
// per-method lookup counters keep their value when the engine generation is
// swapped, because retired generations' counter sets stay referenced.
func TestMetricsSurviveRebuild(t *testing.T) {
	w := newObsWorld(t, 12)
	w.runBus(t, "bus-1", t0, 2, 3)
	h := Handler(w.svc)

	before := scrape(t, h)
	if _, err := w.svc.Rebuild(t.Context()); err != nil {
		t.Fatal(err)
	}
	after := scrape(t, h)

	for _, m := range []string{"exact", "tie", "reduced", "neighbor", "no_fix"} {
		key := `wilocator_locate_lookups_total{method="` + m + `"}`
		if after[key] < before[key] {
			t.Errorf("%s decreased across rebuild: %v -> %v", key, before[key], after[key])
		}
	}
	if got := after[`wilocator_rebuilds_total{result="ok"}`]; got != 1 {
		t.Errorf("rebuilds ok = %v, want 1", got)
	}
	if got := after["wilocator_engine_generation"]; got != 2 {
		t.Errorf("engine generation = %v, want 2", got)
	}
	if got := after["wilocator_rebuild_seconds_count"]; got != 1 {
		t.Errorf("rebuild_seconds_count = %v, want 1", got)
	}
}

func TestMetricsDisabled(t *testing.T) {
	w := newWorld(t, 13) // plain world: no registry, no tracer
	h := Handler(w.svc)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", api.PathMetrics, nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /metrics without registry: %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", api.PathTraceRecent, nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /v1/trace/recent without tracer: %d, want 404", rec.Code)
	}
}

func TestTraceRecentEndpoint(t *testing.T) {
	w := newObsWorld(t, 14)
	h := Handler(w.svc)

	body, _ := json.Marshal(api.Report{BusID: "b1", RouteID: w.route.ID(),
		PhoneID: "p1", Scan: wifi.Scan{Time: t0}})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", api.PathReports, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST report: %d %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", api.PathTraceRecent+"?n=16", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET trace: %d", rec.Code)
	}
	var events []obs.Event
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatalf("trace body: %v", err)
	}
	var ingest *obs.Event
	for i := range events {
		if events[i].Stage == "ingest" {
			ingest = &events[i]
			break
		}
	}
	if ingest == nil {
		t.Fatalf("no ingest event in %d trace events", len(events))
	}
	if ingest.Span == 0 {
		t.Error("ingest event carries no span ID (HTTP middleware did not start a span)")
	}
	if ingest.Note != "accepted" {
		t.Errorf("ingest note = %q, want accepted", ingest.Note)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", api.PathTraceRecent+"?n=bogus", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bogus n: %d, want 400", rec.Code)
	}
}

// TestWALObserverMetrics checks the persister's OnOp hook feeds the
// wilocator_wal_op_seconds histograms.
func TestWALObserverMetrics(t *testing.T) {
	w := newWorld(t, 15)
	reg := obs.NewRegistry()
	store := traveltime.NewStore(traveltime.PaperPlan())
	p, err := traveltime.OpenPersister(t.TempDir(), store, traveltime.PersistConfig{
		SyncEvery: 1,
		OnOp:      WALObserver(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	svc, err := NewService(w.dia, store, Config{
		Now: w.now, Metrics: reg, Sink: p.Record, PersistStats: p.Stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.svc = svc
	// Deterministic WAL traffic: record traversals directly through the
	// persister, exactly as flushLocked's sink would.
	seg := w.route.Segments()[0]
	for i := 0; i < 8; i++ {
		enter := t0.Add(time.Duration(i) * time.Minute)
		if err := p.Record(traveltime.Record{
			Seg: seg, RouteID: w.route.ID(), Enter: enter, Exit: enter.Add(30 * time.Second),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}

	series := scrape(t, Handler(svc))
	ps := p.Stats()
	if ps.WALAppends == 0 {
		t.Fatal("records produced no WAL appends")
	}
	if got := series[`wilocator_wal_op_seconds_count{op="append"}`]; got != float64(ps.WALAppends) {
		t.Errorf("append histogram count = %v, persister appended %d", got, ps.WALAppends)
	}
	if got := series[`wilocator_wal_op_seconds_count{op="fsync"}`]; got == 0 {
		t.Error("fsync histogram empty with SyncEvery=1")
	}
	if got := series[`wilocator_wal_op_seconds_count{op="snapshot"}`]; got == 0 {
		t.Error("snapshot histogram empty after Snapshot()")
	}
	if got := series[`wilocator_wal_appends_total`]; got != float64(ps.WALAppends) {
		t.Errorf("wal_appends_total = %v, want %d", got, ps.WALAppends)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close persister: %v", err)
	}
}

// TestHealthSnapshotConsistency hammers ingestion and the hardened HTTP layer
// while concurrently snapshotting Stats/HTTPStats, asserting the documented
// cross-counter invariants hold in every snapshot — not only at quiescence.
// This is a regression test for transiently inconsistent healthz bodies
// (e.g. served + shed > offered, invalid > rejected) under load.
func TestHealthSnapshotConsistency(t *testing.T) {
	w := newObsWorld(t, 16)
	// A tiny admission bound, shared by both doors, so shedding actually
	// happens on each.
	h := NewHandler(w.svc, HandlerConfig{MaxInFlightReports: 2})

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: a mix of invalid payloads (rejected+invalid), unknown routes
	// (rejected only) and malformed bodies, pushed through the full handler
	// so the offered/served/shed counters move too.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			bad, _ := json.Marshal(api.Report{BusID: strings.Repeat("x", api.MaxIDLength+1),
				RouteID: "campus", Scan: wifi.Scan{Time: t0}})
			unknown, _ := json.Marshal(api.Report{BusID: "b", RouteID: "nope",
				Scan: wifi.Scan{Time: t0}})
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := bad
				if i%2 == g%2 {
					body = unknown
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", api.PathReports, bytes.NewReader(body)))
			}
		}(g)
	}
	// Batch writers: the same poisoned payloads as NDJSON frames, competing
	// with the single writers for the same admission slots and moving the
	// batchOffered/batchServed/batchShed ledger concurrently.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bad, _ := json.Marshal(api.Report{BusID: strings.Repeat("x", api.MaxIDLength+1),
				RouteID: "campus", Scan: wifi.Scan{Time: t0}})
			frame := append(append(append([]byte(nil), bad...), '\n', '{', '\n'), bad...)
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", api.PathReportsBatch, bytes.NewReader(frame)))
			}
		}()
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	checks := 0
	for time.Now().Before(deadline) {
		hs := w.svc.HTTPStats()
		if hs.BatchShed+hs.BatchServed > hs.BatchOffered {
			t.Fatalf("inconsistent batch snapshot: shed %d + served %d > offered %d",
				hs.BatchShed, hs.BatchServed, hs.BatchOffered)
		}
		if hs.Shed+hs.Served > hs.Offered {
			t.Fatalf("inconsistent HTTP snapshot: shed %d + served %d > offered %d",
				hs.Shed, hs.Served, hs.Offered)
		}
		st := w.svc.Stats()
		if st.Invalid > st.Rejected {
			t.Fatalf("inconsistent ingest snapshot: invalid %d > rejected %d", st.Invalid, st.Rejected)
		}
		if st.Located > st.Flushes {
			t.Fatalf("inconsistent ingest snapshot: located %d > flushes %d", st.Located, st.Flushes)
		}
		if p := w.svc.http.pendingLines(); p < 0 {
			t.Fatalf("in-flight line gauge reads %d", p)
		}
		checks++
	}
	close(stop)
	wg.Wait()
	if checks == 0 {
		t.Fatal("checker never ran")
	}

	// Quiescent: the admission ledgers must balance exactly.
	hs := w.svc.HTTPStats()
	if hs.Shed+hs.Served != hs.Offered {
		t.Errorf("at quiescence shed %d + served %d != offered %d", hs.Shed, hs.Served, hs.Offered)
	}
	if hs.Offered == 0 {
		t.Error("hammer offered no requests")
	}
	if hs.BatchShed+hs.BatchServed != hs.BatchOffered {
		t.Errorf("at quiescence batch shed %d + served %d != offered %d",
			hs.BatchShed, hs.BatchServed, hs.BatchOffered)
	}
	if hs.BatchOffered == 0 || hs.BatchReports == 0 {
		t.Errorf("batch hammer moved nothing: offered %d, reports %d", hs.BatchOffered, hs.BatchReports)
	}
	if p := w.svc.http.pendingLines(); p != 0 {
		t.Errorf("at quiescence %d lines are still counted in flight", p)
	}
	// And the healthz body carries the same ledger.
	health := w.svc.Health()
	if health.HTTP.Shed+health.HTTP.Served != health.HTTP.Offered {
		t.Errorf("healthz ledger unbalanced: %+v", health.HTTP)
	}
}

// TestExpositionConformanceLive runs the structural exposition checks against
// the real, fully-instrumented service registry rather than a synthetic one.
func TestExpositionConformanceLive(t *testing.T) {
	w := newObsWorld(t, 17)
	w.runBus(t, "bus-1", t0, 2, 9)
	rec := httptest.NewRecorder()
	Handler(w.svc).ServeHTTP(rec, httptest.NewRequest("GET", api.PathMetrics, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
	seenFamily := map[string]bool{}
	var family string
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0]
			if seenFamily[name] {
				t.Fatalf("family %s not contiguous (second HELP block)", name)
			}
			seenFamily[name] = true
			family = name
		case strings.HasPrefix(line, "# TYPE "):
			name := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)[0]
			if name != family {
				t.Fatalf("TYPE %s does not follow its HELP (current family %s)", name, family)
			}
		case line == "":
			t.Fatal("blank line in exposition")
		default:
			base := line
			if i := strings.IndexByte(base, '{'); i >= 0 {
				base = base[:i]
			} else {
				base = base[:strings.LastIndexByte(base, ' ')]
			}
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base = strings.TrimSuffix(base, suffix)
			}
			if base != family && !strings.HasPrefix(base, family) {
				t.Fatalf("series %q outside its family block %q", line, family)
			}
		}
	}
	if len(seenFamily) < 15 {
		t.Errorf("only %d metric families exposed; instrumentation looks incomplete", len(seenFamily))
	}
	for _, want := range []string{
		"wilocator_ingest_reports_total", "wilocator_locate_lookups_total",
		"wilocator_rebuilds_total", "wilocator_predict_segment_times_total",
		"wilocator_http_reports_offered_total", "wilocator_ingest_seconds",
		"wilocator_http_request_seconds", "wilocator_active_buses",
	} {
		if !seenFamily[want] {
			t.Errorf("family %s missing from live exposition", want)
		}
	}
}
