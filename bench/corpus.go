package main

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/roadnet"
	"wilocator/internal/scenario"
)

// scale fixes the size of a run. Every figure in BENCHMARK.json is measured
// at fullScale; toyScale exists so the smoke test can drive all four
// workloads in a few seconds.
type scale struct {
	spec func(seed uint64) scenario.Spec
	// frameLines is the report count of one closed-loop batch frame.
	frameLines int
	// liveAfter is where the live windows start, measured from the opening
	// of the service window; the warm-up replays everything before it.
	liveAfter time.Duration
	// speedup is K: simulated seconds played per wall second on the live
	// workloads.
	speedup int
	// frameEvery is the wall time between two open-loop frames.
	frameEvery time.Duration
	// gates turns on the validity rules (sample counts, generator lag).
	gates bool
}

var fullScale = scale{
	spec: func(seed uint64) scenario.Spec {
		return scenario.Spec{
			Name: "bench-vancouver", Seed: seed,
			City:      roadnet.CitySpec{Form: roadnet.CityVancouver, Seed: seed},
			StartHour: 8, EndHour: 9,
			BaseHeadway: 2 * time.Minute, Phones: 3, TripHorizon: 15 * time.Minute,
			DupProb: 0.02, SwapProb: 0.02,
			Device: scenario.DeviceSpec{BiasSigma: 4, DropoutProb: 0.05, ClockSkewMax: time.Second, ReportLoss: 0.02},
		}
	},
	frameLines: 256,
	liveAfter:  20 * time.Minute,
	speedup:    60,
	// A publish of this corpus takes 30–45 ms. Frames that far apart or
	// further put the publisher at the knee of its queue, where a tenth
	// more or less machine flips freshness between one publish and one and
	// a half; at 20 ms it is always behind, which is the regime the live
	// workloads exist to show, and a 20 s window holds 1 000 frames.
	frameEvery: 20 * time.Millisecond,
	gates:      true,
}

var toyScale = scale{
	spec: func(seed uint64) scenario.Spec {
		return scenario.Spec{
			Name: "bench-toy", Seed: seed,
			City:        roadnet.CitySpec{Form: roadnet.CityGrid, Seed: seed},
			BaseHeadway: 6 * time.Minute, Phones: 2, TripHorizon: 5 * time.Minute,
			DupProb: 0.02, SwapProb: 0.02,
		}
	},
	frameLines: 64,
	liveAfter:  10 * time.Minute,
	speedup:    60,
	frameEvery: 50 * time.Millisecond,
}

// The rendered scan time is fixed-width, so a lap can re-date a line by
// overwriting ten bytes in place.
const (
	timeLayout = "2006-01-02T15:04:05.000000000Z"
	dayLayout  = "2006-01-02"
	dayLen     = len(dayLayout)
)

// line is one rendered report and what the generator needs to know about it
// without parsing it again.
type line struct {
	off, end int // the NDJSON line, newline included, is text[off:end]
	dayOff   int // text[dayOff:dayOff+dayLen] is the scan time's date
	bus      int32
	deliver  time.Time // when the generator hands it to the server
	scan     time.Time
}

// corpus is one seed's generated input: the compiled world and the
// delivery-ordered reports, pre-rendered so the timed path of the generator
// allocates nothing.
type corpus struct {
	world *scenario.Compiled
	text  []byte
	lines []line
	genS  float64 // wall time spent compiling and rendering
}

// dropEvents lets go of the compiled events (and the timetable they came
// from) once everything that replays them has run: the rendered lines are
// all the generator needs, and a smaller heap is a shorter GC cycle inside
// the measured window.
func (c *corpus) dropEvents() {
	c.world.Events, c.world.Timetable, c.world.Doc = nil, nil, ""
}

// deliveryPhase de-synchronises the fleet. The scenario compiler starts
// every trip on a whole headway, so all buses scan on the same ten-second
// grid and the whole fleet's reports would be due at the same instant. Real
// phones are not synchronised: each bus gets a constant upload phase inside
// the scan period. Scan times are untouched and per-bus order is kept.
func deliveryPhase(bus int, period time.Duration) time.Duration {
	const phases = 20
	return time.Duration(bus*7%phases) * period / phases
}

func buildCorpus(sc scale, seed uint64) (*corpus, error) {
	t0 := time.Now()
	world, err := scenario.Compile(sc.spec(seed))
	if err != nil {
		return nil, fmt.Errorf("compile corpus: %w", err)
	}
	c := &corpus{world: world, lines: make([]line, 0, len(world.Events))}
	for _, ev := range world.Events {
		if ev.Kind != scenario.KindClean {
			return nil, fmt.Errorf("corpus holds a %s event; the workloads assume none fails", ev.Kind)
		}
		ln := line{
			off:     len(c.text),
			bus:     int32(ev.BusIdx),
			deliver: ev.Deliver.Add(deliveryPhase(ev.BusIdx, world.Spec.ScanPeriod)),
			scan:    ev.Report.Scan.Time,
		}
		if c.text, ln.dayOff, err = appendReport(c.text, ev.Report); err != nil {
			return nil, err
		}
		ln.end = len(c.text)
		c.lines = append(c.lines, ln)
	}
	// The phase shift reorders buses against each other, never a bus
	// against itself: the sort is stable and the shift is per bus.
	sort.SliceStable(c.lines, func(i, j int) bool { return c.lines[i].deliver.Before(c.lines[j].deliver) })
	c.genS = time.Since(t0).Seconds()
	return c, nil
}

// appendReport renders rep as one NDJSON line in exactly the shape the
// decoder's fast path takes, and returns where the scan time's date starts.
func appendReport(dst []byte, rep api.Report) (out []byte, dayOff int, err error) {
	for _, id := range []string{rep.BusID, rep.RouteID, rep.PhoneID} {
		if !plainID(id) {
			return nil, 0, fmt.Errorf("identifier %q needs JSON escaping", id)
		}
	}
	dst = append(dst, `{"busId":"`...)
	dst = append(dst, rep.BusID...)
	dst = append(dst, `","routeId":"`...)
	dst = append(dst, rep.RouteID...)
	dst = append(dst, `","phoneId":"`...)
	dst = append(dst, rep.PhoneID...)
	dst = append(dst, `","scan":{"time":"`...)
	dayOff = len(dst)
	dst = rep.Scan.Time.UTC().AppendFormat(dst, timeLayout)
	dst = append(dst, `","readings":[`...)
	for i, rd := range rep.Scan.Readings {
		if !plainID(string(rd.BSSID)) {
			return nil, 0, fmt.Errorf("BSSID %q needs JSON escaping", rd.BSSID)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"bssid":"`...)
		dst = append(dst, rd.BSSID...)
		dst = append(dst, `","rssi":`...)
		dst = strconv.AppendInt(dst, int64(rd.RSSI), 10)
		dst = append(dst, '}')
	}
	dst = append(dst, "]}}\n"...)
	return dst, dayOff, nil
}

func plainID(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// stream is one writer's private copy of its share of the corpus, cut into
// frames. The copy is what lets a lap re-date every line in place.
type stream struct {
	text   []byte
	lines  []line  // offsets are into text
	frames []frame // consecutive runs of lines
}

// frame is one request body, text[off:end], holding lines[first:last].
type frame struct {
	off, end    int
	first, last int
	// due is when an open-loop writer must send it, from the window's start.
	due time.Duration
	// newest is the latest scan time it carries, before any lap shift.
	newest time.Time
}

// newStream copies the picked lines, in order, into a private buffer.
func newStream(c *corpus, pick func(line) bool) *stream {
	s := &stream{}
	for _, ln := range c.lines {
		if !pick(ln) {
			continue
		}
		shift := len(s.text) - ln.off
		s.text = append(s.text, c.text[ln.off:ln.end]...)
		ln.off, ln.end, ln.dayOff = ln.off+shift, ln.end+shift, ln.dayOff+shift
		s.lines = append(s.lines, ln)
	}
	return s
}

// cut groups consecutive lines into frames; next reports whether line i
// starts a new frame given the frame's first line.
func (s *stream) cut(next func(first, i int) bool) {
	s.frames = s.frames[:0]
	for first := 0; first < len(s.lines); {
		last := first + 1
		for last < len(s.lines) && !next(first, last) {
			last++
		}
		f := frame{off: s.lines[first].off, end: s.lines[last-1].end, first: first, last: last}
		for _, ln := range s.lines[first:last] {
			if ln.scan.After(f.newest) {
				f.newest = ln.scan
			}
		}
		s.frames = append(s.frames, f)
		first = last
	}
}

// cutEvery makes frames of n lines (the last one shorter).
func (s *stream) cutEvery(n int) {
	s.cut(func(first, i int) bool { return i-first >= n })
}

// cutByTime makes one frame per `every` of delivery time counted from
// start, skipping empty intervals, and stamps each with its due offset at
// the given speed-up: a frame is cut when its interval closes.
func (s *stream) cutByTime(start time.Time, every time.Duration, speedup int) {
	sim := every * time.Duration(speedup)
	slot := func(i int) int64 { return int64(s.lines[i].deliver.Sub(start) / sim) }
	s.cut(func(first, i int) bool { return slot(i) != slot(first) })
	for k := range s.frames {
		s.frames[k].due = time.Duration(slot(s.frames[k].first)+1) * every
	}
}

// redate rewrites every line's scan date to the corpus day plus lap days,
// in place, and returns the shift it applied to the corpus's own times.
func (s *stream) redate(lap int) time.Duration {
	var day [dayLen]byte
	scenario.Day.AddDate(0, 0, lap).AppendFormat(day[:0], dayLayout)
	for _, ln := range s.lines {
		copy(s.text[ln.dayOff:ln.dayOff+dayLen], day[:])
	}
	return time.Duration(lap) * 24 * time.Hour
}

func (s *stream) body(f frame) []byte { return s.text[f.off:f.end] }

func (s *stream) lineBody(i int) []byte { return s.text[s.lines[i].off:s.lines[i].end] }
