package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/locate"
	"wilocator/internal/predict"
	"wilocator/internal/sensing"
	"wilocator/internal/server"
	"wilocator/internal/trafficmap"
	"wilocator/internal/traveltime"
	"wilocator/internal/wifi"
)

// counters is one reading of every count the program already keeps: the
// service's stats structs, the persister's, and the production registry as
// GET /metrics renders it. Keys are the struct field in dotted form or the
// Prometheus series as written.
type counters map[string]float64

// scrape renders the production registry as GET /metrics does. A scrape is
// itself a reader — the active-buses gauge loads the read snapshot, and
// republishes it when it is dirty — so the harness scrapes only where a
// traced window opens and closes and four times inside it, and keeps count
// of the publishes its own scrapes caused.
func (s *sut) scrape() (series map[string]float64, ms float64) {
	var buf bytes.Buffer
	before := s.svc.ReadStats().Publishes
	t0 := time.Now()
	_ = s.reg.WritePrometheus(&buf) // a bytes.Buffer write cannot fail
	ms = float64(time.Since(t0)) / float64(time.Millisecond)
	s.scrapePublishes.Add(s.svc.ReadStats().Publishes - before)
	return parsePrometheus(buf.Bytes()), ms
}

// readCounters reads them all. scrapeMS is how long the registry render
// took.
func readCounters(s *sut) (c counters, scrapeMS float64) {
	c = counters{}
	series, scrapeMS := s.scrape()
	for name, v := range series {
		c[name] = v
	}
	in, ht, rd, ps := s.svc.Stats(), s.svc.HTTPStats(), s.svc.ReadStats(), s.pers.Stats()
	c["ingest.accepted"] = float64(in.Accepted)
	c["ingest.rejected"] = float64(in.Rejected)
	c["ingest.late_dropped"] = float64(in.LateDropped)
	c["ingest.flushes"] = float64(in.Flushes)
	c["ingest.located"] = float64(in.Located)
	c["ingest.registered"] = float64(in.Registered)
	c["http.offered"] = float64(ht.Offered)
	c["http.shed"] = float64(ht.Shed)
	c["http.batch_offered"] = float64(ht.BatchOffered)
	c["http.batch_served"] = float64(ht.BatchServed)
	c["http.batch_shed"] = float64(ht.BatchShed)
	c["http.batch_reports"] = float64(ht.BatchReports)
	c["read.publishes"] = float64(rd.Publishes - s.scrapePublishes.Load())
	c["read.serves"] = float64(rd.Serves)
	c["read.not_modified"] = float64(rd.NotModified)
	c["read.stream_deltas"] = float64(rd.StreamDeltas)
	c["read.stream_frames"] = float64(rd.StreamFrames)
	c["read.stream_dropped"] = float64(rd.StreamDropped)
	c["read.stream_resumes"] = float64(rd.StreamResumes)
	c["persist.wal_appends"] = float64(ps.WALAppends)
	c["persist.wal_syncs"] = float64(ps.WALSyncs)
	c["persist.wal_sync_failures"] = float64(ps.WALSyncFailures)
	return c, scrapeMS
}

// parsePrometheus reads the text exposition format into series → value.
func parsePrometheus(text []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		ln := sc.Text()
		if ln == "" || ln[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(ln, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(ln[i+1:], 64); err == nil {
			out[ln[:i]] = v
		}
	}
	return out
}

// delta is after − before, key by key.
func (after counters) delta(before counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sumPrefix adds up every series that starts with prefix.
func (c counters) sumPrefix(prefix string) float64 {
	var sum float64
	for k, v := range c {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// replayed holds what the layer replay measured: each layer's public
// function called directly, single-threaded, over the workload's own inputs.
type replayed struct {
	decodeNS, lineBytes  float64
	fuseNS               float64
	observeUS, lookupNS  float64
	predictUS, predictMS float64 // per (vehicle, stop) pair; per publish
	tmapUS, tmapMS       float64 // whole network; whole network + every route
	publishMS            []float64
	pairsPerPublish      float64
}

// replayLayers runs the layer replay. histDir is the history the workload's
// server started from, so the predictor and the traffic map read the same
// means.
func replayLayers(c *corpus, histDir, workDir string) (replayed, error) {
	var r replayed

	// api: decode every rendered line, three passes, into one report.
	dec := api.NewReportDecoder()
	var rep api.Report
	const passes = 3
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for _, ln := range c.lines {
			if err := dec.Decode(&rep, c.text[ln.off:ln.end]); err != nil {
				return r, fmt.Errorf("decode replay: %w", err)
			}
		}
	}
	n := float64(passes * len(c.lines))
	r.decodeNS = float64(time.Since(t0)) / n
	r.lineBytes = float64(len(c.text)) / float64(len(c.lines))

	// sensing + locate: the corpus's own fusion windows, per bus, in order.
	type busWindows struct {
		route string
		wins  [][]wifi.Scan
	}
	period := c.world.Spec.ScanPeriod
	perBus := map[int]*busWindows{}
	var order []int
	bucket := map[int]time.Time{}
	for _, ev := range c.world.Events {
		bw := perBus[ev.BusIdx]
		if bw == nil {
			bw = &busWindows{route: ev.Report.RouteID}
			perBus[ev.BusIdx] = bw
			order = append(order, ev.BusIdx)
		}
		b := ev.Report.Scan.Time.Truncate(period)
		switch {
		case len(bw.wins) == 0 || b.After(bucket[ev.BusIdx]):
			bw.wins = append(bw.wins, nil)
			bucket[ev.BusIdx] = b
		case b.Before(bucket[ev.BusIdx]):
			continue // a late scan; the server drops it too
		}
		bw.wins[len(bw.wins)-1] = append(bw.wins[len(bw.wins)-1], ev.Report.Scan)
	}
	var fused []wifi.Scan
	var fusedRoute []string
	var fusedBus []int
	windows := 0
	t0 = time.Now()
	for _, b := range order {
		for _, w := range perBus[b].wins {
			fused = append(fused, sensing.Fuse(w))
			fusedRoute = append(fusedRoute, perBus[b].route)
			fusedBus = append(fusedBus, b)
			windows++
		}
	}
	r.fuseNS = float64(time.Since(t0)) / float64(windows)

	pos, err := locate.NewPositioner(c.world.Dia, c.world.Dia.Order())
	if err != nil {
		return r, err
	}
	t0 = time.Now()
	for i, sc := range fused {
		_, _ = pos.Locate(fusedRoute[i], sc, nil) // a no-fix is an outcome, not a failure
	}
	r.lookupNS = float64(time.Since(t0)) / float64(len(fused))

	trackers := map[int]*locate.Tracker{}
	fixes := 0
	t0 = time.Now()
	for i, sc := range fused {
		tr := trackers[fusedBus[i]]
		if tr == nil {
			if tr, err = locate.NewTracker(pos, fusedRoute[i], locate.TrackerConfig{}); err != nil {
				return r, err
			}
			trackers[fusedBus[i]] = tr
		}
		if _, _, err := tr.Observe(sc); err == nil {
			fixes++
		}
	}
	if fixes > 0 {
		r.observeUS = float64(time.Since(t0)) / float64(time.Microsecond) / float64(fixes)
	}

	// predict, trafficmap, server.snapshot: a scratch service over the same
	// history takes the corpus directly and stops at five instants.
	dir := filepath.Join(workDir, "replay")
	if err := copyDir(histDir, dir); err != nil {
		return r, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	store := traveltime.NewStore(traveltime.PaperPlan())
	pers, err := traveltime.OpenPersister(dir, store, traveltime.PersistConfig{})
	if err != nil {
		return r, err
	}
	if err := pers.Close(); err != nil {
		return r, err
	}
	clock := &simClock{}
	svc, err := server.NewService(c.world.Dia, store, server.Config{Now: clock.Now})
	if err != nil {
		return r, err
	}
	defer func() { _ = svc.Close() }()
	pred, err := predict.NewWiLocator(c.world.Net, store, predict.Config{})
	if err != nil {
		return r, err
	}
	tmap, err := trafficmap.NewGenerator(c.world.Net, store, trafficmap.Config{})
	if err != nil {
		return r, err
	}
	const instants = 5
	span := c.world.End.Sub(c.world.Start)
	next := 0
	var predictTotal, tmapNet, tmapAll time.Duration
	var pairs int
	for _, ev := range c.world.Events {
		for next < instants && !ev.Deliver.Before(c.world.Start.Add(span*time.Duration(next+2)/(instants+3))) {
			at := c.world.Start.Add(span * time.Duration(next+2) / (instants + 3))
			clock.advance(at)
			next++

			svc.InvalidateReadSnapshot()
			t := time.Now()
			svc.PublishSnapshot()
			r.publishMS = append(r.publishMS, float64(time.Since(t))/float64(time.Millisecond))

			vehicles := svc.Vehicles("")
			t = time.Now()
			for _, v := range vehicles {
				rt, _ := c.world.Net.Route(v.RouteID)
				for stop := 0; stop < rt.NumStops(); stop++ {
					_, _ = pred.PredictArrival(v.RouteID, v.Arc, v.Updated, stop) // a stop behind the bus is an outcome
					pairs++
				}
			}
			predictTotal += time.Since(t)

			t = time.Now()
			tmap.Map(at)
			tmapNet += time.Since(t)
			for _, rt := range c.world.Net.Routes() {
				if _, err := tmap.MapForRoute(rt.ID(), at); err != nil {
					return r, err
				}
			}
			tmapAll += time.Since(t)
		}
		if _, err := svc.Ingest(ev.Report); err != nil {
			return r, fmt.Errorf("snapshot replay: %w", err)
		}
	}
	if pairs > 0 {
		r.predictUS = float64(predictTotal) / float64(time.Microsecond) / float64(pairs)
	}
	r.predictMS = float64(predictTotal) / float64(time.Millisecond) / instants
	r.pairsPerPublish = float64(pairs) / instants
	r.tmapUS = float64(tmapNet) / float64(time.Microsecond) / instants
	r.tmapMS = float64(tmapAll) / float64(time.Millisecond) / instants
	return r, nil
}
