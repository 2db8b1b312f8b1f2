package server

import (
	"time"

	"wilocator/internal/api"
	"wilocator/internal/obs"
	"wilocator/internal/predict"
	"wilocator/internal/trafficmap"
	"wilocator/internal/traveltime"
)

// serviceMetrics is the service's view into an obs.Registry: the histograms
// it observes directly, plus the CounterFunc/GaugeFunc bridges over counters
// that already live as atomics in the domain packages (so hot paths are
// never counted twice).
//
// Counter bridges read the same writer-ordered atomics the healthz snapshot
// does, so every invariant that holds for Stats() holds for a scrape.
type serviceMetrics struct {
	reg *obs.Registry

	ingestSeconds  *obs.Histogram
	rebuildSeconds *obs.Histogram
	predictSeconds *obs.Histogram
	httpSeconds    map[string]*obs.Histogram
}

// httpTimedPaths are the handler paths that get a per-path request-latency
// series. Registered up front: the obs registry deliberately has no dynamic
// label sets.
var httpTimedPaths = []string{
	api.PathReports,
	api.PathReportsBatch,
	api.PathVehicles,
	api.PathArrivals,
	api.PathTrafficMap,
	api.PathRoutes,
	api.PathStops,
	api.PathAnomalies,
	api.PathTrajectories,
	api.PathHealth,
	api.PathAdminRebuild,
	api.PathMetrics,
	api.PathTraceRecent,
}

// newServiceMetrics registers the full WiLocator instrument inventory in reg
// and returns the service's handles into it. Must be called once per
// (service, registry) pair — the registry panics on duplicates.
func newServiceMetrics(s *Service, reg *obs.Registry) *serviceMetrics {
	m := &serviceMetrics{reg: reg}

	// Ingest outcome counters (bridges over ingestStats).
	const ingestHelp = "Phone reports by ingest outcome."
	reg.CounterFunc("wilocator_ingest_reports_total", ingestHelp,
		s.stats.accepted.Load, obs.L("outcome", "accepted"))
	reg.CounterFunc("wilocator_ingest_reports_total", ingestHelp,
		s.stats.rejected.Load, obs.L("outcome", "rejected"))
	reg.CounterFunc("wilocator_ingest_reports_total", ingestHelp,
		s.stats.lateDropped.Load, obs.L("outcome", "late_dropped"))
	reg.CounterFunc("wilocator_ingest_invalid_reports_total",
		"Reports refused by payload validation (a subset of the rejected outcome).",
		s.stats.invalid.Load)
	reg.CounterFunc("wilocator_ingest_flushes_total",
		"Completed fusion windows.", s.stats.flushes.Load)
	reg.CounterFunc("wilocator_ingest_fixes_total",
		"Fusion flushes that produced a position fix.", s.stats.located.Load)
	reg.CounterFunc("wilocator_bus_registrations_total",
		"Bus (re-)registrations.", s.stats.registered.Load)
	reg.CounterFunc("wilocator_bus_evictions_total",
		"Buses evicted as finished or stale.", s.stats.evicted.Load)

	// HTTP hardening counters (bridges over httpStats).
	reg.CounterFunc("wilocator_http_reports_offered_total",
		"Report POSTs that reached the handler (served + shed at quiescence).",
		s.http.offered.Load)
	reg.CounterFunc("wilocator_http_reports_served_total",
		"Report POSTs admitted and run to a response.", s.http.served.Load)
	reg.CounterFunc("wilocator_http_reports_shed_total",
		"Report POSTs shed with 429 at the admission bound.", s.http.shed.Load)
	reg.CounterFunc("wilocator_http_body_too_large_total",
		"Request bodies cut off by the size limit (413).", s.http.tooLarge.Load)
	reg.CounterFunc("wilocator_http_panics_total",
		"Handler panics recovered into a 500.", s.http.panics.Load)

	// Batch-endpoint admission counters and lines awaiting dispatch.
	reg.CounterFunc("wilocator_http_batches_offered_total",
		"Batch POSTs that reached the handler (served + shed at quiescence).",
		s.http.batchOffered.Load)
	reg.CounterFunc("wilocator_http_batches_served_total",
		"Batch POSTs admitted and run to a response.",
		s.http.batchServed.Load)
	reg.CounterFunc("wilocator_http_batches_shed_total",
		"Batch POSTs shed with 429 at the admission bound.",
		s.http.batchShed.Load)
	reg.CounterFunc("wilocator_http_batch_reports_total",
		"Individual report lines attempted via the batch endpoint.",
		s.http.batchReports.Load)
	reg.GaugeFunc("wilocator_batch_ring_depth",
		"Report lines of admitted requests (both doors) decoded but not yet dispatched.",
		func() float64 { return float64(s.http.pendingLines()) })

	// Locate lookups by method. The counter set of each retired positioner
	// generation is kept alive by the engine (see engine.retired), so the
	// exported sum is monotone across rebuild hot-swaps and loses no
	// in-flight increments.
	const lookupHelp = "SVD lookups by the rule that produced (or failed to produce) the fix."
	lookupCounter := func(pick func(c lookupCounts) uint64) func() uint64 {
		return func() uint64 { return pick(s.lookupCounts()) }
	}
	reg.CounterFunc("wilocator_locate_lookups_total", lookupHelp,
		lookupCounter(func(c lookupCounts) uint64 { return c.exact }), obs.L("method", "exact"))
	reg.CounterFunc("wilocator_locate_lookups_total", lookupHelp,
		lookupCounter(func(c lookupCounts) uint64 { return c.tie }), obs.L("method", "tie"))
	reg.CounterFunc("wilocator_locate_lookups_total", lookupHelp,
		lookupCounter(func(c lookupCounts) uint64 { return c.reduced }), obs.L("method", "reduced"))
	reg.CounterFunc("wilocator_locate_lookups_total", lookupHelp,
		lookupCounter(func(c lookupCounts) uint64 { return c.neighbor }), obs.L("method", "neighbor"))
	reg.CounterFunc("wilocator_locate_lookups_total", lookupHelp,
		lookupCounter(func(c lookupCounts) uint64 { return c.noFix }), obs.L("method", "no_fix"))

	// Rebuild single-flight.
	const rebuildHelp = "Diagram rebuild attempts by result."
	reg.CounterFunc("wilocator_rebuilds_total", rebuildHelp,
		s.rebuild.rebuilds.Load, obs.L("result", "ok"))
	reg.CounterFunc("wilocator_rebuilds_total", rebuildHelp,
		s.rebuild.failures.Load, obs.L("result", "error"))
	reg.GaugeFunc("wilocator_rebuild_in_progress",
		"1 while a diagram rebuild is running.", func() float64 {
			if s.rebuild.active.Load() {
				return 1
			}
			return 0
		})

	// Predictor rule outcomes.
	pm := &predict.Metrics{}
	s.pred.SetMetrics(pm)
	const predictHelp = "Per-segment predictions by the baseline they started from."
	reg.CounterFunc("wilocator_predict_segment_times_total", predictHelp,
		pm.HistoricalMean.Load, obs.L("base", "historical_mean"))
	reg.CounterFunc("wilocator_predict_segment_times_total", predictHelp,
		pm.SegmentMeanFallback.Load, obs.L("base", "segment_mean"))
	reg.CounterFunc("wilocator_predict_segment_times_total", predictHelp,
		pm.FreeFlowFallback.Load, obs.L("base", "free_flow"))
	reg.CounterFunc("wilocator_predict_corrections_total",
		"Predictions whose baseline was corrected by recent cross-route traversals (Eq. 8, K > 0).",
		pm.CorrectionApplied.Load)

	// Traffic-map classifications.
	const tmapHelp = "Traffic-map segment classifications by condition."
	for _, tc := range []struct {
		cond string
		pick func(trafficmap.ClassifyCounts) uint64
	}{
		{"unknown", func(c trafficmap.ClassifyCounts) uint64 { return c.Unknown }},
		{"normal", func(c trafficmap.ClassifyCounts) uint64 { return c.Normal }},
		{"slow", func(c trafficmap.ClassifyCounts) uint64 { return c.Slow }},
		{"very_slow", func(c trafficmap.ClassifyCounts) uint64 { return c.VerySlow }},
	} {
		pick := tc.pick
		reg.CounterFunc("wilocator_trafficmap_segments_total", tmapHelp,
			func() uint64 { return pick(s.tmap.Counts()) }, obs.L("condition", tc.cond))
	}
	reg.CounterFunc("wilocator_trafficmap_inferred_total",
		"Classifications inferred from history rather than fresh traversals.",
		func() uint64 { return s.tmap.Counts().Inferred })

	// Read path: snapshot publishes, cached serves, and the SSE broadcast
	// counters (bridges over readStats).
	reg.CounterFunc("wilocator_read_publishes_total",
		"Epoch-snapshot publications (each advances the served epoch by one).",
		s.read.publishes.Load)
	reg.CounterFunc("wilocator_read_serves_total",
		"GETs answered from an epoch snapshot (200 and 304 alike).",
		s.read.serves.Load)
	reg.CounterFunc("wilocator_read_not_modified_total",
		"If-None-Match hits answered 304 (a subset of read serves).",
		s.read.notModified.Load)
	reg.CounterFunc("wilocator_stream_deltas_total",
		"Per-(epoch, route) stream diff computations — one per broadcast route per epoch, independent of the subscriber count.",
		s.read.streamDeltas.Load)
	reg.CounterFunc("wilocator_stream_frames_total",
		"SSE frames enqueued to subscriber buffers (catch-up and delta frames alike).",
		s.read.streamFrames.Load)
	reg.CounterFunc("wilocator_stream_dropped_total",
		"Stream subscribers shed for falling behind their bounded buffer.",
		s.read.streamDropped.Load)
	reg.CounterFunc("wilocator_stream_resumes_total",
		"Stream subscriptions carrying a ?from= resume epoch.",
		s.read.streamResumes.Load)
	reg.GaugeFunc("wilocator_stream_subscribers",
		"Currently connected SSE stream subscribers.",
		func() float64 { return float64(s.read.subscribers.Load()) })
	reg.GaugeFunc("wilocator_snapshot_epoch",
		"Currently served read-snapshot epoch.",
		func() float64 { return float64(s.Epoch()) })
	reg.GaugeFunc("wilocator_snapshot_age_seconds",
		"Age of the currently served read snapshot.",
		func() float64 {
			age := s.cfg.Now().Sub(s.snap.cur.Load().generatedAt).Seconds()
			if age < 0 {
				return 0
			}
			return age
		})

	// Engine/diagram gauges.
	// Read off the published snapshot, never through currentSnapshot: a
	// scrape is not a reader and must not trigger a publish.
	reg.GaugeFunc("wilocator_active_buses",
		"Tracked, non-stale buses as of the served read snapshot.",
		func() float64 { return float64(len(s.snap.cur.Load().vehicles[""])) })
	reg.GaugeFunc("wilocator_engine_generation",
		"Serving engine generation (1 = initial build).",
		func() float64 { return float64(s.Generation()) })
	reg.GaugeFunc("wilocator_svd_tiles",
		"Signal Tiles in the serving diagram.",
		func() float64 { return float64(s.eng.Load().dia.NumTiles()) })
	reg.GaugeFunc("wilocator_svd_cells",
		"Signal Cells in the serving diagram.",
		func() float64 { return float64(s.eng.Load().dia.NumCells()) })
	reg.GaugeFunc("wilocator_svd_runs",
		"Route runs indexed in the serving diagram, all orders.",
		func() float64 { return float64(s.eng.Load().dia.NumRuns()) })
	reg.GaugeFunc("wilocator_svd_joints",
		"Signal joints indexed in the serving diagram.",
		func() float64 { return float64(s.eng.Load().dia.NumJoints()) })

	// WAL/snapshot counters, when the service runs with a persister.
	if s.cfg.PersistStats != nil {
		ps := s.cfg.PersistStats
		reg.CounterFunc("wilocator_wal_appends_total",
			"Records appended to the write-ahead log.",
			func() uint64 { return ps().WALAppends })
		reg.CounterFunc("wilocator_wal_syncs_total",
			"WAL fsyncs.", func() uint64 { return ps().WALSyncs })
		reg.CounterFunc("wilocator_wal_sync_failures_total",
			"WAL fsyncs that returned an error. Non-zero means records believed persisted may not be durable; alert on any increase.",
			func() uint64 { return ps().WALSyncFailures })
		reg.CounterFunc("wilocator_wal_snapshots_total",
			"Snapshot generations rolled.", func() uint64 { return ps().Snapshots })
		reg.GaugeFunc("wilocator_wal_recovery_skipped_bytes",
			"Bytes of torn/corrupt WAL tail discarded at the last open.",
			func() float64 { return float64(ps().WALSkippedBytes) })
	}

	// Latency histograms the service observes directly.
	m.ingestSeconds = reg.Histogram("wilocator_ingest_seconds",
		"Service-level latency of one report ingest.", nil)
	m.rebuildSeconds = reg.Histogram("wilocator_rebuild_seconds",
		"Wall-clock duration of successful diagram rebuilds.",
		obs.ExpBuckets(0.001, 4, 10))
	m.predictSeconds = reg.Histogram("wilocator_predict_seconds",
		"Latency of one arrivals prediction request.", nil)
	m.httpSeconds = make(map[string]*obs.Histogram, len(httpTimedPaths))
	for _, p := range httpTimedPaths {
		m.httpSeconds[p] = reg.Histogram("wilocator_http_request_seconds",
			"HTTP request latency by path.", nil, obs.L("path", p))
	}
	return m
}

// WALObserver registers WAL operation-latency histograms (append, fsync,
// snapshot) in reg and returns a hook for traveltime.PersistConfig.OnOp
// feeding them. Call once per registry.
func WALObserver(reg *obs.Registry) func(op string, d time.Duration) {
	const help = "Durable-path operation latency: one WAL frame write, one WAL fsync, or one snapshot generation roll."
	hs := map[string]*obs.Histogram{
		traveltime.WALOpAppend:   reg.Histogram("wilocator_wal_op_seconds", help, nil, obs.L("op", traveltime.WALOpAppend)),
		traveltime.WALOpFsync:    reg.Histogram("wilocator_wal_op_seconds", help, nil, obs.L("op", traveltime.WALOpFsync)),
		traveltime.WALOpSnapshot: reg.Histogram("wilocator_wal_op_seconds", help, nil, obs.L("op", traveltime.WALOpSnapshot)),
	}
	return func(op string, d time.Duration) {
		if h := hs[op]; h != nil {
			h.Observe(d.Seconds())
		}
	}
}

// lookupCounts is the cross-generation sum of lookup outcomes.
type lookupCounts struct {
	exact, tie, reduced, neighbor, noFix uint64
}

// lookupCounts sums the lookup counters of the serving positioner and every
// retired generation. Retired counter sets are still live references, so an
// in-flight lookup finishing on an old generation is never lost; the sum is
// monotone because every term is.
func (s *Service) lookupCounts() lookupCounts {
	e := s.eng.Load()
	var out lookupCounts
	for _, ls := range e.retired {
		c := ls.Counts()
		out.exact += c.Exact
		out.tie += c.Tie
		out.reduced += c.Reduced
		out.neighbor += c.Neighbor
		out.noFix += c.NoFix
	}
	c := e.pos.Stats().Counts()
	out.exact += c.Exact
	out.tie += c.Tie
	out.reduced += c.Reduced
	out.neighbor += c.Neighbor
	out.noFix += c.NoFix
	return out
}

// Registry returns the metrics registry the service was configured with, or
// nil when observability is disabled.
func (s *Service) Registry() *obs.Registry {
	if s.mx == nil {
		return nil
	}
	return s.mx.reg
}

// Tracer returns the service's tracer (nil when tracing is disabled). The
// obs.Tracer is nil-safe, so callers may use the result unconditionally.
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// TraceRecent returns up to max recent trace events, newest first; nil when
// tracing is disabled.
func (s *Service) TraceRecent(max int) []obs.Event { return s.tracer.Recent(max) }
