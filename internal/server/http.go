package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/obs"
)

// HandlerConfig tunes the transport hardening of the HTTP layer. The zero
// value selects defaults safe for public exposure.
type HandlerConfig struct {
	// MaxBodyBytes caps a POST body. Requests whose body exceeds it are
	// answered 413 (not a decode 400 — the client must know shrinking the
	// payload, not fixing its JSON, is the remedy). Default 1 MiB; a real
	// report is a few hundred bytes.
	MaxBodyBytes int64
	// MaxInFlightReports bounds the report POSTs — single and batch
	// together — being ingested at once. Beyond the bound the server sheds
	// load with 429 + Retry-After, before reading the body, instead of
	// queueing unboundedly: under a crowd-sensing stampede, bounded latency
	// for admitted reports beats unbounded latency for all. Default 256.
	MaxInFlightReports int
	// RetryAfter is the Retry-After hint attached to shed responses,
	// rounded up to whole seconds. Default 1s.
	RetryAfter time.Duration
	// BatchMaxReports caps the NDJSON line count of one POST
	// /v1/reports/batch; larger batches are answered 413 and must be
	// split. Default 4096.
	BatchMaxReports int
	// BatchMaxBodyBytes caps a batch POST body (413 beyond). Batches carry
	// thousands of reports, so the single-report MaxBodyBytes does not
	// apply to them. Default 16 MiB.
	BatchMaxBodyBytes int64
	// GroupCommit, when set, brackets every batch with a
	// BeginBatch/EndBatch fsync window so the WAL is synced once per
	// batch instead of once per SyncEvery records, without weakening the
	// fsync-before-ack durability contract. Wire the service's
	// *traveltime.Persister here; leave nil when running without
	// persistence.
	GroupCommit GroupCommit
}

func (c HandlerConfig) withDefaults() HandlerConfig {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxInFlightReports <= 0 {
		c.MaxInFlightReports = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.BatchMaxReports <= 0 {
		c.BatchMaxReports = 4096
	}
	if c.BatchMaxBodyBytes <= 0 {
		c.BatchMaxBodyBytes = 16 << 20
	}
	return c
}

// Handler returns the HTTP handler exposing the service as the JSON API of
// package api, hardened with the default HandlerConfig.
func Handler(s *Service) http.Handler {
	return NewHandler(s, HandlerConfig{})
}

// NewHandler is Handler with explicit hardening limits.
func NewHandler(s *Service, hc HandlerConfig) http.Handler {
	hc = hc.withDefaults()
	retryAfter := strconv.Itoa(int((hc.RetryAfter + time.Second - 1) / time.Second))
	ing := newIngester(s, hc, retryAfter)

	mux := http.NewServeMux()
	mux.HandleFunc("POST "+api.PathReports, ing.serve(door{
		what: "report", maxBody: hc.MaxBodyBytes,
		offered: &s.http.offered, served: &s.http.served, shed: &s.http.shed,
	}))
	mux.HandleFunc("POST "+api.PathReportsBatch, ing.serve(door{
		what: "batch", batch: true, maxBody: hc.BatchMaxBodyBytes,
		offered: &s.http.batchOffered, served: &s.http.batchServed, shed: &s.http.batchShed,
	}))

	// The rider-facing read endpoints serve a cell of the current epoch
	// snapshot: a pointer load, an ETag check, a byte write. A 200 renders
	// the cell's body if no earlier read of the epoch has; a 304 never does.
	mux.HandleFunc("GET "+api.PathVehicles, func(w http.ResponseWriter, r *http.Request) {
		snap := s.currentSnapshot()
		// An unknown route has no entry, which on the old path meant a nil
		// vehicle list, not an error.
		cell := snap.vehicles[r.URL.Query().Get("route")]
		if cell == nil {
			s.serveSnapshot(w, r, snap, renderNull)
			return
		}
		s.serveSnapshot(w, r, snap, cell.render)
	})

	mux.HandleFunc("GET "+api.PathArrivals, func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		routeID := q.Get("route")
		if routeID == "" {
			writeErr(w, http.StatusBadRequest, "missing route parameter")
			return
		}
		stopIdx, err := strconv.Atoi(q.Get("stop"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid stop parameter")
			return
		}
		if _, err := s.checkStop(routeID, stopIdx); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		snap := s.currentSnapshot()
		cells := snap.arrivals[routeID]
		if stopIdx >= len(cells) {
			s.serveSnapshot(w, r, snap, renderNull)
			return
		}
		cell := &cells[stopIdx]
		if cell.err != nil {
			writeErr(w, http.StatusBadRequest, cell.err.Error())
			return
		}
		s.serveSnapshot(w, r, snap, cell.render)
	})

	mux.HandleFunc("GET "+api.PathTrafficMap, func(w http.ResponseWriter, r *http.Request) {
		routeID := r.URL.Query().Get("route")
		if routeID != "" {
			if _, ok := s.net.Route(routeID); !ok {
				writeErr(w, http.StatusBadRequest, fmt.Sprintf("trafficmap: unknown route %q", routeID))
				return
			}
		}
		// Every route of the network (and "" for all of it) has a cell.
		snap := s.currentSnapshot()
		s.serveSnapshot(w, r, snap, snap.tmaps[routeID].render)
	})

	mux.HandleFunc("GET "+api.PathStream, func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		routeID := q.Get("route")
		if routeID == "" {
			writeErr(w, http.StatusBadRequest, "missing route parameter")
			return
		}
		if _, ok := s.net.Route(routeID); !ok {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("server: unknown route %q", routeID))
			return
		}
		var from uint64
		if v := q.Get("from"); v != "" {
			parsed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "invalid from parameter")
				return
			}
			from = parsed
		}
		flusher, ok := w.(http.Flusher)
		if !ok {
			writeErr(w, http.StatusInternalServerError, "streaming unsupported by this connection")
			return
		}
		sub, initial, err := s.bcast.subscribe(routeID, from)
		if err != nil {
			if errors.Is(err, errStreamFull) {
				w.Header().Set("Retry-After", retryAfter)
			}
			writeErr(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		defer s.bcast.unsubscribe(sub)
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-store")
		h.Set("X-Accel-Buffering", "no") // reverse proxies must not buffer SSE
		w.WriteHeader(http.StatusOK)
		for _, frame := range initial {
			if _, err := w.Write(frame); err != nil {
				return
			}
		}
		flusher.Flush()
		ctx := r.Context()
		for {
			select {
			case <-ctx.Done():
				return
			case frame, ok := <-sub.ch:
				if !ok {
					// Shed for falling behind, or the broadcaster closed.
					// Ending the response tells the client to reconnect with
					// ?from= and resume from its last applied epoch.
					return
				}
				if _, err := w.Write(frame); err != nil {
					return
				}
				flusher.Flush()
			}
		}
	})

	mux.HandleFunc("GET "+api.PathRoutes, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.RouteInfos())
	})

	mux.HandleFunc("GET "+api.PathStops, func(w http.ResponseWriter, r *http.Request) {
		routeID := r.URL.Query().Get("route")
		if routeID == "" {
			writeErr(w, http.StatusBadRequest, "missing route parameter")
			return
		}
		out, err := s.Stops(routeID)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET "+api.PathAnomalies, func(w http.ResponseWriter, r *http.Request) {
		out, err := s.Anomalies(r.URL.Query().Get("route"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET "+api.PathTrajectories, func(w http.ResponseWriter, r *http.Request) {
		busID := r.URL.Query().Get("bus")
		if busID == "" {
			writeErr(w, http.StatusBadRequest, "missing bus parameter")
			return
		}
		out, err := s.Trajectory(busID)
		if err != nil {
			writeErr(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET "+api.PathHealth, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Health())
	})

	mux.HandleFunc("POST "+api.PathAdminRebuild, func(w http.ResponseWriter, r *http.Request) {
		out, err := s.Rebuild(r.Context())
		if err != nil {
			if errors.Is(err, ErrRebuildInProgress) {
				writeErr(w, http.StatusConflict, err.Error())
				return
			}
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET "+api.PathMetrics, func(w http.ResponseWriter, r *http.Request) {
		if s.mx == nil {
			writeErr(w, http.StatusNotFound, "metrics disabled")
			return
		}
		w.Header().Set("Content-Type", obs.ContentType)
		_ = s.mx.reg.WritePrometheus(w)
	})

	mux.HandleFunc("GET "+api.PathTraceRecent, func(w http.ResponseWriter, r *http.Request) {
		if s.tracer == nil {
			writeErr(w, http.StatusNotFound, "tracing disabled")
			return
		}
		n := defaultTraceRecent
		if v := r.URL.Query().Get("n"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed <= 0 {
				writeErr(w, http.StatusBadRequest, "invalid n parameter")
				return
			}
			n = parsed
		}
		events := s.TraceRecent(n)
		if events == nil {
			events = []obs.Event{}
		}
		writeJSON(w, http.StatusOK, events)
	})

	return recoverPanics(s, instrument(s, mux))
}

// defaultTraceRecent bounds a /v1/trace/recent response when the client does
// not pass ?n=.
const defaultTraceRecent = 128

// instrument wraps the mux with the observability concerns that apply to
// every route: a fresh trace span per request (so service-layer events of one
// request share an ID) and per-path request-latency histograms. When both
// metrics and tracing are disabled the handler chain is returned untouched —
// zero overhead.
func instrument(s *Service, next http.Handler) http.Handler {
	if s.mx == nil && s.tracer == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.tracer != nil {
			ctx, _ := s.tracer.StartSpan(r.Context())
			r = r.WithContext(ctx)
		}
		if s.mx != nil {
			if h, ok := s.mx.httpSeconds[r.URL.Path]; ok {
				t0 := time.Now()
				defer func() { h.Observe(time.Since(t0).Seconds()) }()
			}
		}
		next.ServeHTTP(w, r)
	})
}

// recoverPanics converts a handler panic into a counted 500 so one bad
// request cannot take the whole server process down with it. The panic
// counter is exposed through Service.HTTPStats / healthz, turning "it
// crashed somewhere" into an observable, alertable signal.
// http.ErrAbortHandler is re-raised: it is net/http's own control flow for
// deliberately dropping a connection.
func recoverPanics(s *Service, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if err, ok := v.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(v)
			}
			s.http.panics.Add(1)
			// Best effort: if the handler already wrote headers the
			// connection is committed and this write is a no-op.
			writeErr(w, http.StatusInternalServerError, "internal error")
		}()
		next.ServeHTTP(w, r)
	})
}

// serveSnapshot writes one snapshot cell with the HTTP caching layer of the
// read path: a strong ETag derived from the snapshot epoch, a Cache-Control
// max-age equal to the snapshot's remaining fusion-window validity, and a
// 304 short-circuit on If-None-Match. render is called only for a 200, so
// a revalidation never renders the cell. serves is incremented before the
// notModified check so NotModified <= Serves at every instant (ReadStats
// loads in the reverse order).
func (s *Service) serveSnapshot(w http.ResponseWriter, r *http.Request, snap *readSnapshot, render func() []byte) {
	s.read.serves.Add(1)
	h := w.Header()
	h.Set("ETag", snap.etag)
	h.Set("Cache-Control", "public, max-age="+strconv.Itoa(snap.maxAgeSec(s.cfg.Now(), s.cfg.FusionWindow)))
	if im := r.Header.Get("If-None-Match"); im != "" && etagMatch(im, snap.etag) {
		s.read.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body := render()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// etagMatch implements the If-None-Match comparison for strong ETags: a
// wildcard, or the ETag appearing in the (possibly comma-separated) list. A
// W/ prefix marks a weak validator, which a strong comparison never matches.
func etagMatch(header, etag string) bool {
	if header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		if strings.TrimSpace(part) == etag {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An encode failure after the header is written can only be logged by
	// the caller's middleware; the connection is already committed.
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, api.Error{Message: msg})
}
