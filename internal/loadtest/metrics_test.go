package loadtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wilocator/internal/api"
	"wilocator/internal/obs"
	"wilocator/internal/server"
)

// scrapeSeries GETs /metrics through the handler and parses the exposition
// text into a series -> value map ("name{labels}" exactly as rendered).
func scrapeSeries(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", api.PathMetrics, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", api.PathMetrics, rec.Code, rec.Body.String())
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsUnderFleetLoad replays the whole simulated fleet through the
// real HTTP layer (one goroutine per bus POSTing /v1/reports) while scraper
// goroutines hammer /metrics, then reconciles the final scrape against the
// delivery tally and the service's own Stats/HTTPStats accounting.
//
// Mid-flight scrapes assert only the invariants whose exposition render
// order matches the required load order: families render sorted by name, so
// "invalid <= rejected" (invalid_reports < reports) and "fixes <= flushes"
// (fixes < flushes) read left-hand sides first and must hold in every
// scrape. Cross-family sums involving the HTTP counters render offered
// first and are only checked at quiescence.
func TestMetricsUnderFleetLoad(t *testing.T) {
	w := testWorld(t)
	spec := testSpec()
	spec.Seed = 1789
	streams, err := GenStreams(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, st := range streams {
		total += len(st.Reports)
	}

	reg := obs.NewRegistry()
	svc, _, err := NewService(w, server.Config{
		Now:     FixedClock(T0.Add(spec.Horizon)),
		Metrics: reg,
		Tracer:  obs.NewTracer(1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := server.Handler(svc)

	var (
		wg       sync.WaitGroup
		scrapeWG sync.WaitGroup
		bad      = make(chan error, total)
	)
	stop := make(chan struct{})
	for s := 0; s < 3; s++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				series := scrapeSeries(t, h)
				if inv, rej := series["wilocator_ingest_invalid_reports_total"],
					series[`wilocator_ingest_reports_total{outcome="rejected"}`]; inv > rej {
					bad <- fmt.Errorf("scrape: invalid %v > rejected %v", inv, rej)
				}
				if fixes, flushes := series["wilocator_ingest_fixes_total"],
					series["wilocator_ingest_flushes_total"]; fixes > flushes {
					bad <- fmt.Errorf("scrape: fixes %v > flushes %v", fixes, flushes)
				}
			}
		}()
	}

	for _, st := range streams {
		wg.Add(1)
		go func(st BusStream) {
			defer wg.Done()
			for _, rep := range st.Reports {
				body, err := json.Marshal(rep)
				if err != nil {
					bad <- err
					return
				}
				rec := httptest.NewRecorder()
				req := httptest.NewRequest("POST", api.PathReports, bytes.NewReader(body))
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					bad <- fmt.Errorf("POST %s: status %d: %s", api.PathReports, rec.Code, rec.Body.String())
				}
			}
		}(st)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()
	close(bad)
	for err := range bad {
		t.Error(err)
	}

	// Quiescent reconciliation: the scrape, the service's snapshots, and the
	// delivery count must all tell one story.
	// The read comes first: the active_buses gauge reports the published
	// snapshot, and a scrape never publishes one.
	active := svc.ActiveBuses()
	series := scrapeSeries(t, h)
	stats, hs := svc.Stats(), svc.HTTPStats()

	if hs.Offered != uint64(total) || hs.Served != hs.Offered || hs.Shed != 0 {
		t.Errorf("http stats %+v, want offered = served = %d, shed 0", hs, total)
	}
	if got := stats.Accepted + stats.Rejected + stats.LateDropped; got != uint64(total) {
		t.Errorf("ingest outcomes sum to %d of %d delivered", got, total)
	}
	if stats.LateDropped == 0 {
		t.Error("perturbed fleet produced no late drops; the late path went unmetered")
	}

	for name, want := range map[string]uint64{
		`wilocator_ingest_reports_total{outcome="accepted"}`:     stats.Accepted,
		`wilocator_ingest_reports_total{outcome="rejected"}`:     stats.Rejected,
		`wilocator_ingest_reports_total{outcome="late_dropped"}`: stats.LateDropped,
		"wilocator_ingest_invalid_reports_total":                 stats.Invalid,
		"wilocator_ingest_flushes_total":                         stats.Flushes,
		"wilocator_ingest_fixes_total":                           stats.Located,
		"wilocator_bus_registrations_total":                      stats.Registered,
		"wilocator_bus_evictions_total":                          stats.Evicted,
		"wilocator_http_reports_offered_total":                   hs.Offered,
		"wilocator_http_reports_served_total":                    hs.Served,
		"wilocator_http_reports_shed_total":                      hs.Shed,
		"wilocator_http_body_too_large_total":                    hs.TooLarge,
		"wilocator_http_panics_total":                            hs.Panics,
	} {
		if got := series[name]; got != float64(want) {
			t.Errorf("%s = %v, service says %d", name, got, want)
		}
	}

	// Every delivered POST was timed once by the ingest histogram and once by
	// the per-path request histogram; the scrapers themselves show up on the
	// /metrics path series.
	if got := series["wilocator_ingest_seconds_count"]; got != float64(total) {
		t.Errorf("ingest_seconds observed %v of %d deliveries", got, total)
	}
	if got := series[`wilocator_http_request_seconds_count{path="/v1/reports"}`]; got != float64(total) {
		t.Errorf("request histogram timed %v of %d report POSTs", got, total)
	}
	if series[`wilocator_http_request_seconds_count{path="/metrics"}`] == 0 {
		t.Error("scrapes left no trace in the /metrics latency series")
	}
	if got := series["wilocator_active_buses"]; got != float64(active) {
		t.Errorf("active_buses gauge %v, service says %d", got, active)
	}

	// The tracer saw the replay too: recent events include ingest spans.
	events := svc.TraceRecent(256)
	if len(events) == 0 {
		t.Fatal("tracer recorded nothing during the replay")
	}
	sawIngest := false
	for _, ev := range events {
		if ev.Stage == "ingest" {
			sawIngest = true
			break
		}
	}
	if !sawIngest {
		t.Error("no ingest-stage events among recent traces")
	}
}
