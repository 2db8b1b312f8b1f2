package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/loadtest"
	"wilocator/internal/server"
	"wilocator/internal/traveltime"
)

// Workload names.
const (
	wlIngestDrain = "ingest-drain"
	wlSinglePost  = "single-post"
	wlPollLive    = "poll-live"
	wlStreamLive  = "stream-live"
)

var workloadNames = []string{wlIngestDrain, wlSinglePost, wlPollLive, wlStreamLive}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sc       scale
	workDir  string // scratch space, removed when the run ends
	outDir   string // where a traced run writes trace-<workload>.json
}

// metric is one reported figure. n is the sample count behind it (0 for a
// figure that is not a statistic of samples).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// runResult is what one run reports.
type runResult struct {
	attempted, failed int
	metrics           map[string]metric
	// faults are correctness failures; invalid lists broken validity rules
	// (generator lag, backlog, an under-populated percentile).
	faults, invalid []string
	tracePath       string // where a traced run wrote its spans
}

func (r *runResult) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.faults = append(r.faults, fmt.Sprintf("metric %s is not finite", name))
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

// env is what a workload's driver works with.
type env struct {
	cfg runConfig
	c   *corpus
	s   *sut
	rec *recorder // nil on an untraced run
	lim *limits   // the generator's caps, enforced as the workload runs
	res *runResult

	// Filled by the driver.
	main      measured // the measured window
	acks      split    // acknowledgement latencies
	gets      split    // GET latencies
	fresh     split    // freshness
	unseen    int      // (frame, bus) pairs never sighted
	laps      int
	lags      []sample
	extra     map[string]float64 // driver-specific layer figures
	ctrBefore counters           // counters when the traced window opened
	ctrAfter  counters
	spans     []span
}

// split holds a window's samples of one kind: those of the slices the
// harness spans were on in, and the others. An untraced run has only the
// others.
type split struct{ plain, traced []sample }

// measured is what a window's bookkeeping yields.
type measured struct {
	wall    time.Duration
	cpu     time.Duration
	reports int
	peakMiB float64
	ringMax float64
}

func (e *env) fault(format string, args ...any) {
	e.res.faults = append(e.res.faults, fmt.Sprintf(format, args...))
}

func (e *env) invalid(format string, args ...any) {
	if e.cfg.sc.gates {
		e.res.invalid = append(e.res.invalid, fmt.Sprintf(format, args...))
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMiB reads the process's resident set from /proc/self/statm.
func residentMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// ringScrapes is how often a traced window reads the batch rings' depth, a
// gauge only the registry exposes (see sut.scrape for why so rarely).
const ringScrapes = 4

// traceSlice is how long a traced window keeps the harness spans on, and
// then off, in turn: the two kinds of slice see the same machine and, on the
// live workloads, the same stretch of the simulated day. Odd slices are
// traced.
const traceSlice = time.Second

func tracedSlice(sinceEpoch int64) bool { return sinceEpoch/int64(traceSlice)%2 == 1 }

// window runs body, expected to last d, between two readings of the
// process's CPU time, sampling the resident set (and, while tracing, the
// batch rings' depth) on the side. On a traced run it also reads the
// program's counters when the window opens and closes and switches the
// harness spans on and off, slice by slice.
func (e *env) window(d time.Duration, body func(epoch time.Time)) measured {
	var m measured
	var resident []float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		t0, scrapes := time.Now(), 0
		for {
			resident = append(resident, residentMiB())
			if e.rec.enabled() && time.Since(t0) > d*time.Duration(scrapes+1)/(ringScrapes+1) {
				series, _ := e.s.scrape()
				m.ringMax = math.Max(m.ringMax, series["wilocator_batch_ring_depth"])
				scrapes++
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	if e.cfg.trace {
		// Counters over the whole window; spans in every other slice of it.
		e.ctrBefore, _ = readCounters(e.s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(traceSlice)
			defer tick.Stop()
			for slice := 1; ; slice++ {
				select {
				case <-stop:
					e.rec.on.Store(false)
					return
				case <-tick.C:
					// Counted, not read off the clock: a tick a microsecond
					// early must not repeat the slice before it.
					e.rec.on.Store(slice%2 == 1)
				}
			}
		}()
	}
	cpu0, t0 := cpuTime(), time.Now()
	body(t0)
	m.wall, m.cpu = time.Since(t0), cpuTime()-cpu0
	close(stop)
	wg.Wait()
	if e.cfg.trace {
		e.ctrAfter, _ = readCounters(e.s)
	}
	for _, r := range resident {
		m.peakMiB = math.Max(m.peakMiB, r)
	}
	return m
}

// split is how a run's --seconds are spent. An untraced run measures one
// window and, on the workloads whose own traffic has no reader or no GET,
// spends the last quarter on a read-after-write probe that supplies those
// figures. A traced run is one window, half of it — every other slice —
// with the harness spans on.
func (e *env) split(needsProbe bool) (window, probe time.Duration) {
	total := time.Duration(e.cfg.seconds * float64(time.Second))
	if needsProbe && !e.cfg.trace {
		return total * 3 / 4, total / 4
	}
	return total, 0
}

// bySlice sorts a window's samples by the kind of slice they fell in.
func (e *env) bySlice(ss []sample) (out split) {
	for _, s := range ss {
		if e.cfg.trace && tracedSlice(s.at) {
			out.traced = append(out.traced, s)
		} else {
			out.plain = append(out.plain, s)
		}
	}
	return out
}

// referenceTally replays one writer's share sequentially through a fresh
// service and returns what a lap of it must add up to.
func referenceTally(c *corpus, share func(bus int) bool) (tally, error) {
	perBus := map[int]*loadtest.BusStream{}
	var order []int
	for _, ev := range c.world.Events {
		if !share(ev.BusIdx) {
			continue
		}
		bs := perBus[ev.BusIdx]
		if bs == nil {
			bs = &loadtest.BusStream{BusID: ev.Report.BusID, RouteID: ev.Report.RouteID}
			perBus[ev.BusIdx] = bs
			order = append(order, ev.BusIdx)
		}
		bs.Reports = append(bs.Reports, ev.Report)
	}
	streams := make([]loadtest.BusStream, 0, len(order))
	for _, b := range order {
		streams = append(streams, *perBus[b])
	}
	svc, _, err := loadtest.NewService(&loadtest.World{Net: c.world.Net, Dep: c.world.Dep, Dia: c.world.Dia}, server.Config{})
	if err != nil {
		return tally{}, err
	}
	defer func() { _ = svc.Close() }()
	t := loadtest.ReplayVia(streams, 0, -1, svc.Ingest)
	return tally{received: t.Delivered, accepted: t.Accepted, located: t.Located, late: t.LateDropped, rejected: t.Errors}, nil
}

// runClosed drives ingest-drain and single-post: two writers, each on its
// own connection with its own half of the buses, lap after lap.
func runClosed(e *env, single bool) error {
	var writers [maxGenerators]*closedWriter
	for w := range writers {
		w := w
		share := func(bus int) bool { return bus%maxGenerators == w }
		ref, err := referenceTally(e.c, share)
		if err != nil {
			return err
		}
		if ref.rejected != 0 {
			return fmt.Errorf("reference replay rejects %d reports; the workload assumes none", ref.rejected)
		}
		st := newStream(e.c, func(ln line) bool { return share(int(ln.bus)) })
		st.cutEvery(e.cfg.sc.frameLines)
		writers[w] = &closedWriter{st: st, c: newConn(e.lim, 30*time.Second), base: e.s.base,
			single: single, clock: e.s.clock, rec: e.rec, ref: ref}
		defer writers[w].c.close()
	}
	both := func(epoch, until time.Time, laps int) {
		var wg sync.WaitGroup
		for _, w := range writers {
			wg.Add(1)
			go func(w *closedWriter) {
				defer wg.Done()
				e.lim.generator(func() { w.run(epoch, until, laps) })
			}(w)
		}
		wg.Wait()
	}
	// take returns what the writers gathered since the last call: their
	// acknowledgements in time order, and the reports those carried.
	take := func() (acks []sample, reports int) {
		for _, w := range writers {
			acks = append(acks, w.acks...)
			reports += w.reports
			w.acks, w.reports = w.acks[:0], 0
		}
		sort.Slice(acks, func(i, j int) bool { return acks[i].at < acks[j].at })
		return acks, reports
	}

	e.c.dropEvents()

	// Warm-up: one full lap, untimed.
	both(time.Now(), time.Time{}, 1)
	take()
	debug.FreeOSMemory()

	length, probe := e.split(true)
	e.main = e.window(length, func(epoch time.Time) { both(epoch, epoch.Add(length), 0) })
	acks, reports := take()
	e.acks, e.main.reports = e.bySlice(acks), reports

	if !e.cfg.trace {
		// Bring both writers to the same point of a fresh lap, untimed, so
		// that every run probes the same stretch of the simulated day: what a
		// publish costs depends on how many buses are on the road.
		both(time.Now(), time.Time{}, 1)
		// The probe writes both halves of the fleet in turn over one
		// connection; the other slot is its reader's.
		writers[1].c.close()
		writers[1].c = writers[0].c
		day := max(writers[0].lap, writers[1].lap)
		for _, w := range writers {
			w.lap = day // the same day for both halves of the fleet
			if !single {
				w.st.cutEvery(probeLines)
			}
			e.lim.generator(func() {
				for w.next < w.units()*2/5 {
					w.sendNext(time.Now())
				}
			})
		}
		take()
		round := 0
		e.probe(probe, func(epoch time.Time) (map[int32]int64, time.Time) {
			w := writers[round%len(writers)]
			round++
			needs := map[int32]int64{}
			var sent time.Time
			for n := 0; n < probeLines; {
				lo, hi := w.next, w.next+1
				if !single {
					lo, hi = w.st.frames[w.next].first, w.st.frames[w.next].last
				}
				shift := time.Duration(w.lap) * 24 * time.Hour
				if at := w.sendNext(epoch); n == 0 {
					sent = at
				}
				n += hi - lo
				for _, ln := range w.st.lines[lo:hi] {
					if t := ln.scan.Add(shift).UnixNano(); t > needs[ln.bus] {
						needs[ln.bus] = t
					}
				}
			}
			return needs, sent
		})
		take()
	}

	for i, w := range writers {
		e.res.attempted += w.ops.attempted
		e.res.failed += w.ops.failed
		e.laps += w.laps
		for _, f := range w.faults {
			e.fault("writer %d: %s", i, f)
		}
	}
	return nil
}

// probeLines is how many reports one round of the probe writes.
const probeLines = 32

// probe is the read-after-write probe that ends an untraced run on the
// workloads whose own traffic has no reader: for d, write one unit, then GET
// /v1/vehicles, and time the GET and how long after the write was sent the
// answer shows each bus it carried. write returns the newest scan time it
// sent per bus and when the first byte left.
func (e *env) probe(d time.Duration, write func(epoch time.Time) (map[int32]int64, time.Time)) {
	rd := &pollReader{c: newConn(e.lim, 30*time.Second), rec: e.rec, svc: e.s.svc,
		urls:  []string{e.s.base + api.PathVehicles},
		etags: map[string]string{}, hashes: map[string]uint64{}}
	defer rd.c.close()
	busIdx := map[string]int32{}
	for i, b := range e.c.world.Buses {
		busIdx[b.ID] = int32(i)
	}
	e.lim.generator(func() {
		epoch := time.Now()
		for i := 0; time.Since(epoch) < d; i++ {
			needs, sent := write(epoch)
			recv, vehicles := rd.get(epoch, i)
			seen := 0
			for _, v := range vehicles {
				bus, known := busIdx[v.BusID]
				if scan, ok := needs[bus]; known && ok && v.Updated.UnixNano() >= scan {
					seen++
					e.fresh.plain = append(e.fresh.plain, sample{at: int64(recv.Sub(epoch)),
						v: float64(recv.Sub(sent)) / float64(time.Millisecond)})
				}
			}
			e.unseen += len(needs) - seen
		}
	})
	e.gets.plain = append(e.gets.plain, rd.gets...)
	e.res.attempted += rd.ops.attempted
	e.res.failed += rd.ops.failed
	for _, f := range rd.faults {
		e.fault("probe reader: %s", f)
	}
}

// runLive drives poll-live and stream-live: one open-loop writer playing the
// fleet at K simulated seconds per wall second, and one reader.
func runLive(e *env, stream bool) error {
	sc := e.cfg.sc
	liveStart := e.c.world.Start.Add(sc.liveAfter)
	e.c.dropEvents()

	// Warm-up: everything due before the live window, closed loop.
	warm := newStream(e.c, func(ln line) bool { return ln.deliver.Before(liveStart) })
	warm.cutEvery(sc.frameLines)
	ww := &closedWriter{st: warm, c: newConn(e.lim, 30*time.Second), base: e.s.base, clock: e.s.clock, unchecked: true}
	e.lim.generator(func() { ww.run(time.Now(), time.Time{}, 1) })
	ww.c.close()
	for _, f := range ww.faults {
		e.fault("warm-up: %s", f)
	}

	live := newStream(e.c, func(ln line) bool { return !ln.deliver.Before(liveStart) })
	live.cutByTime(liveStart, sc.frameEvery, sc.speedup)
	total, probe := e.split(stream)
	to := sort.Search(len(live.frames), func(i int) bool { return live.frames[i].due > total })
	if to == 0 {
		return errors.New("the live window holds no frame")
	}
	w := &liveWriter{st: live, c: newConn(e.lim, 30*time.Second), base: e.s.base, rec: e.rec,
		acked: make([]atomic.Int64, len(live.frames))}
	defer w.c.close()

	routes := e.c.world.Net.Routes()
	sort.Slice(routes, func(i, j int) bool { return routes[i].ID() < routes[j].ID() })
	route := ""
	if stream {
		route = routes[0].ID()
	}
	fresh := newFreshness(e.c, live, to, route)

	var poll *pollReader
	var sse *streamReader
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var readerDone sync.WaitGroup
	if stream {
		sse = &streamReader{url: e.s.base + api.PathStream + "?route=" + route, c: newConn(e.lim, 0), fresh: fresh}
	} else {
		poll = &pollReader{pace: sc.frameEvery, c: newConn(e.lim, 30*time.Second), rec: e.rec, svc: e.s.svc,
			urls: pollURLs(e.s.base, e.c), fresh: fresh, acked: w.acked,
			etags: map[string]string{}, hashes: map[string]uint64{}}
		defer poll.c.close()
	}

	debug.FreeOSMemory()
	whole := e.window(total, func(epoch time.Time) {
		e.s.clock.start(liveStart, sc.speedup)
		readerDone.Add(1)
		if stream {
			ready := make(chan struct{})
			go func() {
				defer readerDone.Done()
				e.lim.generator(func() { sse.run(ctx, epoch, ready) })
			}()
			<-ready
		} else {
			go func() {
				defer readerDone.Done()
				e.lim.generator(func() { poll.run(epoch) })
			}()
		}
		e.lim.generator(func() { w.run(epoch, to) })
		if stream {
			// Let the pump push what the last frames dirtied: wait until
			// the epoch holds still and the subscriber has it.
			for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
				at := e.s.svc.Epoch()
				time.Sleep(20 * time.Millisecond)
				if e.s.svc.Epoch() == at && sse.epoch.Load() == at {
					break
				}
			}
		} else {
			poll.stop.Store(true)
			readerDone.Wait()
		}
	})
	e.s.clock.freeze()

	if stream {
		// The stream's contract: after a final publish the snapshot plus
		// the deltas rebuild exactly what the service serves.
		deadline := time.Now().Add(3 * time.Second)
		for sse.epoch.Load() != e.s.svc.PublishSnapshot() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
		readerDone.Wait()
		if got, want := sse.epoch.Load(), e.s.svc.Epoch(); got != want {
			e.fault("stream ended at epoch %d, the service serves %d", got, want)
		} else if err := sameVehicles(sse.vehicles(), e.s.svc.Vehicles(route)); err != nil {
			e.fault("stream reconstruction: %v", err)
		}
	}

	e.main = whole
	e.main.wall, e.main.reports = total, w.reports // the schedule's length, not the drain's
	e.acks = e.bySlice(w.acks)
	e.lags = w.lags
	e.fresh = e.bySlice(fresh.samples)
	e.unseen = fresh.unobserved(total)
	e.res.attempted += w.ops.attempted
	e.res.failed += w.ops.failed
	for _, f := range w.faults {
		e.fault("writer: %s", f)
	}
	if stream {
		e.res.attempted += sse.ops.attempted
		e.res.failed += sse.ops.failed
		for _, f := range sse.faults {
			e.fault("stream reader: %s", f)
		}
		if len(sse.epochGaps) > 0 {
			var sum float64
			for _, g := range sse.epochGaps {
				sum += g
			}
			e.extra["epochs_per_event"] = sum / float64(len(sse.epochGaps))
		}
	} else {
		e.gets = e.bySlice(poll.gets)
		e.extra["stale_reads"] = float64(poll.stale)
		e.extra["cached_us_p50"] = median(values(poll.cached))
		e.extra["publish_ms_p50"] = median(values(poll.publishing))
		e.extra["publish_ms_p95"] = percentile(values(poll.publishing), 95)
		e.res.attempted += poll.ops.attempted
		e.res.failed += poll.ops.failed
		for _, f := range poll.faults {
			e.fault("poll reader: %s", f)
		}
	}

	// The generator's own health. A rare stall of the whole process (a
	// noisy neighbour, a slow fsync) moves the lag's tail, which is reported
	// as loadgen.lag_ms_p99; only a generator that is late as a rule, or
	// falls behind, invalidates the run.
	if mid := median(values(e.lags)); mid > 5 {
		e.invalid("open-loop writer runs late: median lag %.2f ms > 5 ms", mid)
	}
	if n := len(w.behind); n >= 8 {
		if late := median(values(w.behind[n*3/4:])); late > float64(sc.frameEvery)/float64(time.Millisecond) {
			e.invalid("writer backlog grows: the last quarter's frames start a median %.1f ms late", late)
		}
	}

	if stream && !e.cfg.trace {
		// No GET belongs to this workload; the probe supplies the figure.
		// The broadcast pump outlives its subscriber and would publish
		// ahead of every GET, leaving the probe 25 µs cache hits to time;
		// with the push side shut down the GET publishes, as it does on the
		// other workloads' probes.
		if err := e.s.svc.Close(); err != nil {
			return err
		}
		next := to
		e.probe(probe, func(epoch time.Time) (map[int32]int64, time.Time) {
			if next >= len(live.frames) {
				next = to // wrapped: re-sending old frames is late-dropped, still a write
			}
			f := live.frames[next]
			next++
			e.s.clock.advance(f.newest)
			resp, sent, _, err := w.c.do(e.rec, http.MethodPost, e.s.base+api.PathReportsBatch, live.body(f), [2]string{})
			e.res.attempted++
			if err != nil || resp.StatusCode != http.StatusOK {
				e.res.failed++
				e.fault("probe frame: %v", err)
			}
			return nil, sent
		})
	}
	return nil
}

func sameVehicles(got, want []api.VehicleStatus) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d vehicles, the service has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.Updated.Equal(w.Updated) {
			return fmt.Errorf("bus %s updated %v, the service has %v", g.BusID, g.Updated, w.Updated)
		}
		g.Updated, w.Updated = time.Time{}, time.Time{}
		if g != w {
			return fmt.Errorf("bus %s: %+v, the service has %+v", g.BusID, g, w)
		}
	}
	return nil
}

// checkRecovery reopens the run's WAL directory and compares the recovered
// store with the one the server ended on.
func checkRecovery(s *sut) error {
	store := traveltime.NewStore(traveltime.PaperPlan())
	pers, err := traveltime.OpenPersister(s.dir, store, traveltime.PersistConfig{})
	if err != nil {
		return fmt.Errorf("reopen WAL directory: %w", err)
	}
	defer func() { _ = pers.Close() }()
	if ps := pers.Stats(); ps.WALSkippedBytes != 0 || ps.WALRejected != 0 {
		return fmt.Errorf("recovery skipped %d bytes and rejected %d frames of a cleanly closed log", ps.WALSkippedBytes, ps.WALRejected)
	}
	err = traveltime.Diff(s.store, store, 1e-6)
	if err == nil || !strings.Contains(err.Error(), "order-dependent") {
		return err
	}
	// A key sits at a retention cap, where which entries survive depends on
	// arrival order and Diff declines to compare. Counts and means do not
	// depend on order: compare those.
	if a, b := s.store.NumRecords(), store.NumRecords(); a != b {
		return fmt.Errorf("live store holds %d records, recovered store %d", a, b)
	}
	for _, seg := range s.dia.Network().Graph.Segments() {
		ma, na := s.store.SegmentMean(seg.ID)
		mb, nb := store.SegmentMean(seg.ID)
		if na != nb || math.Abs(ma-mb) > 1e-6*math.Max(1, math.Abs(ma)) {
			return fmt.Errorf("segment %d: live mean %.9g over %d, recovered %.9g over %d", seg.ID, ma, na, mb, nb)
		}
	}
	return nil
}

// setupRuns is how many cold constructions setup_s is the median of.
const setupRuns = 15

// runWorkload is one whole run: generate, set up, drive, check, report.
func runWorkload(cfg runConfig) (*runResult, error) {
	if runtime.NumCPU() < maxGenerators {
		return nil, fmt.Errorf("the benchmark needs %d CPUs, this machine has %d", maxGenerators, runtime.NumCPU())
	}
	res := &runResult{metrics: map[string]metric{}}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(cfg.workDir) }()

	c, err := buildCorpus(cfg.sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	histDir := filepath.Join(cfg.workDir, "history")
	if err := seedHistory(c, histDir); err != nil {
		return nil, err
	}
	setups, err := measureSetup(c, histDir, cfg.workDir, setupRuns)
	if err != nil {
		return nil, err
	}

	e := &env{cfg: cfg, c: c, res: res, lim: &limits{}, extra: map[string]float64{}}
	var rp replayed
	if cfg.trace {
		e.rec = newRecorder()
		// The layer replay needs nothing of the window, so it runs first
		// and the corpus's events can be dropped before the server starts.
		if rp, err = replayLayers(c, histDir, cfg.workDir); err != nil {
			return nil, err
		}
	}
	runDir := filepath.Join(cfg.workDir, "wal")
	if err := copyDir(histDir, runDir); err != nil {
		return nil, err
	}
	if e.s, _, err = startSUT(c.world.Net, c.world.Dep, runDir, &simClock{}, e.rec); err != nil {
		return nil, err
	}
	e.s.clock.advance(c.world.Start)

	switch cfg.workload {
	case wlIngestDrain:
		err = runClosed(e, false)
	case wlSinglePost:
		err = runClosed(e, true)
	case wlPollLive:
		err = runLive(e, false)
	case wlStreamLive:
		err = runLive(e, true)
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		_ = e.s.stop()
		return nil, err
	}
	for _, b := range e.lim.breaches {
		e.fault("generator limits: %s", b)
	}
	if res.attempted == 0 {
		e.fault("the workload attempted no operation")
	}
	if e.rec != nil {
		var dropped int
		if e.spans, dropped = e.rec.take(); dropped > 0 {
			e.invalid("the recorder ran out of room: %d spans dropped", dropped)
		}
	}
	if err := e.s.stop(); err != nil {
		e.fault("server shutdown: %v", err)
	}
	if err := checkRecovery(e.s); err != nil {
		e.fault("recovery: %v", err)
	}

	if cfg.trace {
		if err := reportLayers(e, setups, rp); err != nil {
			return nil, err
		}
	} else {
		reportEndToEnd(e, setups)
	}
	return res, nil
}

// reportEndToEnd fills in the ten end-to-end metrics.
func reportEndToEnd(e *env, setups []setupTimes) {
	r, m, acks := e.res, e.main, e.acks.plain
	var totals []float64
	for _, st := range setups {
		totals = append(totals, st.total)
	}
	r.set("setup_s", median(totals), "s", len(totals))
	r.set("reports_per_s", float64(m.reports)/m.wall.Seconds(), "reports/s", m.reports)
	r.set("ack_ms_p50", median(values(acks)), "ms", len(acks))
	r.set("ack_ms_p99", percentile(values(acks), 99), "ms", len(acks))
	gets, fresh := e.gets.plain, e.fresh.plain
	r.set("get_ms_p50", median(values(gets)), "ms", len(gets))
	r.set("get_ms_p95", percentile(values(gets), 95), "ms", len(gets))
	r.set("fresh_ms_p50", median(values(fresh)), "ms", len(fresh))
	r.set("fresh_ms_p95", percentile(values(fresh), 95), "ms", len(fresh))
	r.set("cpu_us_per_report", float64(m.cpu)/float64(time.Microsecond)/float64(m.reports), "us", m.reports)
	r.set("mem_peak_mb", m.peakMiB, "MiB", 0)

	// A figure the workload's own traffic produces must carry its
	// percentile; the probe's figures are exempt (see README).
	native := map[string][]sample{}
	switch e.cfg.workload {
	case wlIngestDrain, wlSinglePost:
		native["ack_ms_p99"] = acks
	case wlPollLive:
		native["get_ms_p95"], native["fresh_ms_p95"] = gets, fresh
	case wlStreamLive:
		native["fresh_ms_p95"] = fresh
	}
	for name, ss := range native {
		p, _ := strconv.ParseFloat(name[strings.LastIndex(name, "_p")+2:], 64)
		if !supports(len(ss), p) {
			e.invalid("%s rests on %d samples, which carry a p%g at most", name, len(ss), highestPercentile(len(ss)))
		}
	}
	for name, mv := range r.metrics {
		if mv.Value == 0 {
			e.invalid("%s is zero", name)
		}
	}
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *runResult) line() ([]byte, error) {
	return json.Marshal(resultLine{
		Correct:   len(r.faults) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
}
