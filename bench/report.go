package main

import (
	"time"
)

// reportLayers fills in the per-layer metrics of a traced run from its three
// sources: the seam spans of the traced window, the program's own counters
// read when that window opened and closed, and the layer replay. It also
// writes the run's trace file.
func reportLayers(e *env, setups []setupTimes, rp replayed) error {
	r := e.res
	d := e.ctrAfter.delta(e.ctrBefore)
	_, scrapeMS := readCounters(e.s) // the registry outlives the listener
	spans := e.spans
	us, ms := time.Microsecond, time.Millisecond

	reports := d["ingest.accepted"] + d["ingest.rejected"] + d["ingest.late_dropped"]

	// api
	r.set("api.decode_ns_per_report", rp.decodeNS, "ns", 3*len(e.c.lines))
	r.set("api.line_bytes_mean", rp.lineBytes, "bytes", len(e.c.lines))

	// server.http
	batch := spanDurations(spans, spanHTTPBatch, ms)
	single := spanDurations(spans, spanHTTPReport, us)
	r.set("server.http.batch_ms_p50", median(batch), "ms", len(batch))
	r.set("server.http.report_us_p50", median(single), "us", len(single))
	r.set("server.http.get_cached_us_p50", e.extra["cached_us_p50"], "us", 0)
	transport := transportTimes(spans)
	r.set("server.http.transport_us_p50", median(transport), "us", len(transport))
	r.set("server.http.shed_ratio", ratio(d["http.shed"], d["http.offered"]), "ratio", int(d["http.offered"]))
	r.set("server.http.not_modified_ratio", ratio(d["read.not_modified"], d["read.serves"]), "ratio", int(d["read.serves"]))

	// server.batch: what a frame costs beyond ingesting its lines and making
	// them durable — decode, rings, response.
	// Spans cover the traced slices only and the counters the whole window,
	// so the subtraction is done per report.
	total, self := selfTimes(spans)
	core := ratio(d["wilocator_ingest_seconds_sum"]*1e6, d["wilocator_ingest_seconds_count"])
	perFrame := ratio(d["http.batch_reports"], d["http.batch_served"])
	overhead := 0.0
	if perFrame > 0 && len(batch) > 0 {
		overhead = float64(total[spanHTTPBatch]-sumSpans(spans, spanGroupCommit))/float64(us)/(perFrame*float64(len(batch))) - core
	}
	r.set("server.batch.reports_per_frame", perFrame, "count", int(d["http.batch_served"]))
	r.set("server.batch.overhead_us_per_report", overhead, "us", int(perFrame*float64(len(batch))))
	r.set("server.batch.shed_ratio", ratio(d["http.batch_shed"], d["http.batch_offered"]), "ratio", int(d["http.batch_offered"]))
	r.set("server.batch.ring_depth_max", e.main.ringMax, "count", 0)

	// server.ingest
	r.set("server.ingest.core_us_per_report", core, "us", int(d["wilocator_ingest_seconds_count"]))
	r.set("server.ingest.accept_ratio", ratio(d["ingest.accepted"], reports), "ratio", int(reports))
	r.set("server.ingest.late_drop_ratio", ratio(d["ingest.late_dropped"], reports), "ratio", int(reports))
	r.set("server.ingest.fix_ratio", ratio(d["ingest.located"], d["ingest.flushes"]), "ratio", int(d["ingest.flushes"]))
	r.set("server.ingest.registrations", d["ingest.registered"], "count", 0)

	// sensing, locate, svd
	r.set("sensing.fuse_ns_per_window", rp.fuseNS, "ns", 0)
	r.set("locate.observe_us_per_fix", rp.observeUS, "us", 0)
	r.set("locate.lookup_ns_per_scan", rp.lookupNS, "ns", 0)
	lookups := d.sumPrefix("wilocator_locate_lookups_total{")
	r.set("locate.exact_ratio", ratio(d[`wilocator_locate_lookups_total{method="exact"}`], lookups), "ratio", int(lookups))
	r.set("locate.no_fix_ratio", ratio(d[`wilocator_locate_lookups_total{method="no_fix"}`], lookups), "ratio", int(lookups))
	var builds, opens []float64
	for _, st := range setups {
		builds, opens = append(builds, st.build), append(opens, st.open)
	}
	r.set("svd.build_s", median(builds), "s", len(builds))
	r.set("svd.runs", float64(e.s.dia.NumRuns()), "count", 0)
	r.set("svd.tiles", float64(e.s.dia.NumTiles()), "count", 0)

	// traveltime
	fsyncs := spanDurations(spans, spanWALFsync, us)
	r.set("traveltime.open_s", median(opens), "s", len(opens))
	r.set("traveltime.records", d["persist.wal_appends"], "count", 0)
	r.set("traveltime.record_us_p50", median(spanDurations(spans, spanRecord, us)), "us", int(d["persist.wal_appends"]))
	r.set("traveltime.wal_append_us_p50", median(spanDurations(spans, spanWALAppend, us)), "us", int(d["persist.wal_appends"]))
	r.set("traveltime.wal_fsync_us_p50", median(fsyncs), "us", len(fsyncs))
	r.set("traveltime.wal_fsync_us_p99", percentile(fsyncs, 99), "us", len(fsyncs))
	r.set("traveltime.group_commit_us_p50", median(spanDurations(spans, spanGroupCommit, us)), "us", 0)
	r.set("traveltime.fsyncs_per_kreport", ratio(d["persist.wal_syncs"]*1000, reports), "count", int(d["persist.wal_syncs"]))
	r.set("traveltime.sync_failures", d["persist.wal_sync_failures"], "count", 0)

	// predict, trafficmap
	r.set("predict.arrival_us", rp.predictUS, "us", int(rp.pairsPerPublish*5))
	r.set("predict.segment_times_per_publish", ratio(d.sumPrefix("wilocator_predict_segment_times_total{"), d["read.publishes"]), "count", int(d["read.publishes"]))
	r.set("predict.busy_ms_per_publish", rp.predictMS, "ms", 5)
	r.set("trafficmap.map_us", rp.tmapUS, "us", 5)
	r.set("trafficmap.busy_ms_per_publish", rp.tmapMS, "ms", 5)

	// server.snapshot: from the poller's own GETs where there is one, from
	// the replay's five publishes elsewhere.
	pub50, pub95 := median(rp.publishMS), percentile(rp.publishMS, 95)
	if e.cfg.workload == wlPollLive {
		cached := e.extra["cached_us_p50"] / 1000
		pub50, pub95 = e.extra["publish_ms_p50"]-cached, e.extra["publish_ms_p95"]-cached
	}
	r.set("server.snapshot.publishes", d["read.publishes"], "count", 0)
	r.set("server.snapshot.publish_ms_p50", pub50, "ms", 0)
	r.set("server.snapshot.publish_ms_p95", pub95, "ms", 0)
	r.set("server.snapshot.publishes_per_get", ratio(d["read.publishes"], d["read.serves"]), "ratio", int(d["read.serves"]))
	whole := median(rp.publishMS)
	r.set("server.snapshot.unattributed_pct", ratio(100*(whole-rp.predictMS-rp.tmapMS), whole), "%", len(rp.publishMS))
	r.set("server.snapshot.stale_reads", e.extra["stale_reads"], "count", 0)

	// server.broadcast
	r.set("server.broadcast.deltas", d["read.stream_deltas"], "count", 0)
	r.set("server.broadcast.frames", d["read.stream_frames"], "count", 0)
	r.set("server.broadcast.dropped_ratio", ratio(d["read.stream_dropped"], d["read.stream_frames"]), "ratio", int(d["read.stream_frames"]))
	r.set("server.broadcast.epochs_per_event", e.extra["epochs_per_event"], "count", 0)
	r.set("server.broadcast.resumes", d["read.stream_resumes"], "count", 0)

	// obs: how much worse the traced slices are than the untraced ones, on
	// the figure the workload is about.
	var traceCost float64
	switch e.cfg.workload {
	case wlPollLive:
		plain, traced := median(values(e.gets.plain)), median(values(e.gets.traced))
		traceCost = ratio(traced-plain, plain)
	case wlStreamLive:
		plain, traced := median(values(e.fresh.plain)), median(values(e.fresh.traced))
		traceCost = ratio(traced-plain, plain)
	default:
		// Throughput: each traced slice against the mean of the untraced
		// slices on either side of it, which takes out a drift; the median
		// over the slices shrugs off a stall that lands in one of them.
		perSlice := map[int64]float64{}
		for _, acks := range [][]sample{e.acks.plain, e.acks.traced} {
			for _, a := range acks {
				perSlice[a.at/int64(traceSlice)]++
			}
		}
		var drops []float64
		for i := int64(1); i+2 < int64(len(perSlice)); i += 2 { // the last slice may be cut short
			around := (perSlice[i-1] + perSlice[i+1]) / 2
			drops = append(drops, ratio(around-perSlice[i], around))
		}
		traceCost = median(drops)
	}
	r.set("obs.scrape_ms", scrapeMS, "ms", 1)
	r.set("obs.trace_overhead_pct", 100*traceCost, "%", 0)

	// loadgen: the benchmark's own figures.
	r.set("loadgen.gen_s", e.c.genS, "s", 1)
	r.set("loadgen.corpus_reports", float64(len(e.c.lines)), "count", 0)
	r.set("loadgen.laps", float64(e.laps), "count", 0)
	r.set("loadgen.lag_ms_p99", percentile(values(e.lags), 99), "ms", len(e.lags))
	r.set("loadgen.fresh_unobserved", float64(e.unseen), "count", 0)

	// What the spans leave unexplained is printed, not hidden.
	ctr := map[string]float64{}
	for k, v := range d {
		if v != 0 {
			ctr[k] = v
		}
	}
	for layer, t := range self {
		ctr["self_ms."+layer] = float64(t) / float64(ms)
	}
	var err error
	r.tracePath, err = writeTrace(e.cfg.outDir, traceFile{Workload: e.cfg.workload, Seed: e.cfg.seed, Counters: ctr, Spans: spans})
	return err
}

// sumSpans adds up the durations of the spans called name.
func sumSpans(spans []span, name string) time.Duration {
	var sum time.Duration
	for _, s := range spans {
		if s.Name == name {
			sum += s.dur()
		}
	}
	return sum
}

// transportTimes returns, per request, the client span minus the server
// span it caused, in µs: loopback, net/http on both sides, and scheduling.
func transportTimes(spans []span) []float64 {
	client := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Name == spanClient {
			client[s.ID] = s.dur()
		}
	}
	var out []float64
	for _, s := range spans {
		if c, ok := client[s.Parent]; ok && s.Parent != 0 {
			out = append(out, float64(c-s.dur())/float64(time.Microsecond))
		}
	}
	return out
}
