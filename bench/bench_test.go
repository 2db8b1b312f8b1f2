package main

import (
	"bytes"
	"math"
	"regexp"
	"testing"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/wifi"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{50, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.want != 50 && !supports(tc.n, tc.want) {
			t.Errorf("supports(%d, %v) = false", tc.n, tc.want)
		}
	}
	if supports(199, 95) || supports(999, 99) {
		t.Error("a percentile with fewer than ten samples beyond it is supported")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
}

func TestLimitsTurnAwayTheThird(t *testing.T) {
	var l limits
	for i := 0; i < maxConnections; i++ {
		if err := l.open(); err != nil {
			t.Fatalf("connection %d: %v", i+1, err)
		}
	}
	if err := l.open(); err == nil {
		t.Error("a connection beyond the cap was let through")
	}
	l.release()
	if err := l.open(); err != nil {
		t.Errorf("a released slot was not given out again: %v", err)
	}

	// Two generators hold their slots while a third asks for one.
	ran := make([]bool, maxGenerators+1)
	var nest func(i int)
	nest = func(i int) {
		l.generator(func() {
			ran[i] = true
			if i < maxGenerators {
				nest(i + 1)
			}
		})
	}
	nest(0)
	if !ran[0] || !ran[1] || ran[2] {
		t.Errorf("generators ran: %v, want the first two only", ran)
	}
	l.generator(func() { ran[2] = true })
	if !ran[2] {
		t.Error("a finished generator's slot was not given out again")
	}
	if len(l.breaches) != 2 {
		t.Errorf("breaches = %q, want one connection and one goroutine", l.breaches)
	}
}

func TestListedCellIsUnresolvedNotWorse(t *testing.T) {
	bm := contract{
		Workloads: []workloadDef{{Name: "w"}},
		EndToEnd:  []boundedDef{{Name: "m", Unit: "ms", Better: "lower", Bound: 0.1}},
	}
	set := func(vs ...float64) *repeatFile {
		return &repeatFile{Runs: map[string]map[string][]float64{"w": {"m": vs}}}
	}
	a, slower, faster := set(100, 101, 102, 103), set(150, 151, 152, 153), set(50, 51, 52, 53)
	listed := &baselineFile{Cells: map[string]map[string]cell{"m": {"w": {Unresolved: "spread 0.2 does not hold 10 %"}}}}
	if got := report(&bm, nil, a, slower); got != 1 {
		t.Errorf("an unlisted cell 50 %% slower: %d worse, want 1", got)
	}
	if got := report(&bm, listed, a, slower); got != 0 {
		t.Errorf("a listed cell 50 %% slower: %d worse, want 0 (unresolved)", got)
	}
	if got := report(&bm, listed, a, faster); got != 0 {
		t.Errorf("a listed cell with every run better: %d worse, want 0", got)
	}
}

func TestSelfTimesBySums(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: spanClient, StartNS: 0, EndNS: 10 * ms, Request: 1},
		{ID: 2, Parent: 1, Name: spanHTTPBatch, StartNS: 1 * ms, EndNS: 9 * ms, Request: 1},
		{ID: 3, Name: spanRecord, StartNS: 2 * ms, EndNS: 4 * ms},
		{ID: 4, Name: spanWALAppend, StartNS: 3 * ms, EndNS: 4 * ms},
		{ID: 5, Name: spanGroupCommit, StartNS: 6 * ms, EndNS: 9 * ms},
		{ID: 6, Name: spanWALFsync, StartNS: 6 * ms, EndNS: 8 * ms},
		// A second, overlapping request on the other connection.
		{ID: 7, Name: spanClient, StartNS: 2 * ms, EndNS: 6 * ms, Request: 7},
		{ID: 8, Parent: 7, Name: spanHTTPBatch, StartNS: 3 * ms, EndNS: 5 * ms, Request: 7},
	}
	total, self := selfTimes(spans)
	want := map[string][2]time.Duration{
		spanClient:    {14 * time.Millisecond, 4 * time.Millisecond}, // 14 − 10 of handlers
		spanHTTPBatch: {10 * time.Millisecond, 5 * time.Millisecond}, // 10 − 2 record − 3 commit
		"traveltime":  {5 * time.Millisecond, 2 * time.Millisecond},  // 2 + 3 − 1 append − 2 fsync
		spanWALAppend: {1 * time.Millisecond, 1 * time.Millisecond},
		spanWALFsync:  {2 * time.Millisecond, 2 * time.Millisecond},
	}
	for name, w := range want {
		if total[name] != w[0] || self[name] != w[1] {
			t.Errorf("%s: total %v self %v, want %v %v", name, total[name], self[name], w[0], w[1])
		}
	}
	if got := transportTimes(spans); len(got) != 2 || got[0] != 2000 || got[1] != 2000 {
		t.Errorf("transportTimes = %v, want [2000 2000]", got)
	}
}

// fakeClock is a clock that only moves when someone sleeps or stalls on it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromDueAndReportsLag(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	epoch := clock.now
	dues := []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond, 150 * time.Millisecond}
	sleeps := 0
	sleep := func(d time.Duration) {
		if sleeps++; sleeps == 1 {
			d += 5 * time.Millisecond // the generator oversleeps once
		}
		clock.Sleep(d)
	}
	acks, lags, behind := openLoop(epoch, dues, clock.Now, sleep, func(i int) bool {
		cost := time.Millisecond
		if i == 1 {
			cost = 120 * time.Millisecond // the server stalls on the second frame
		}
		clock.Sleep(cost)
		return i != 3 // the last frame fails: no latency sample
	})
	// Frame 1 is due at 50 and starts at 55: the generator's own lag. It
	// returns at 175, so frame 2 (due 100) and frame 3 (due 150) start 75
	// and 26 behind through no fault of the generator. An acknowledgement is
	// timed from the send's own start.
	want := map[string][]float64{
		"lag":    {0, 5, 0, 0},
		"behind": {0, 5, 75, 26},
		"ack":    {1, 120, 1},
	}
	for name, got := range map[string][]sample{"lag": lags, "behind": behind, "ack": acks} {
		if len(got) != len(want[name]) {
			t.Fatalf("%d %s samples, want %d", len(got), name, len(want[name]))
		}
		for i, w := range want[name] {
			if got[i].v != w {
				t.Errorf("%s[%d] = %v ms, want %v", name, i, got[i].v, w)
			}
		}
	}
}

func TestRedateRoundTripsThroughDecoder(t *testing.T) {
	reports := []api.Report{
		{BusID: "bus-000-r1", RouteID: "r1", PhoneID: "p0", Scan: wifi.Scan{
			Time:     time.Date(2016, 3, 7, 8, 0, 0, 123456789, time.UTC),
			Readings: []wifi.Reading{{BSSID: "ap-0001", RSSI: -48}, {BSSID: "ap-0002", RSSI: -71}}}},
		{BusID: "bus-001-r2", RouteID: "r2", PhoneID: "p1", Scan: wifi.Scan{
			Time: time.Date(2016, 3, 7, 8, 59, 59, 0, time.UTC)}},
	}
	c := &corpus{}
	for i, rep := range reports {
		ln := line{off: len(c.text), bus: int32(i), scan: rep.Scan.Time}
		var err error
		if c.text, ln.dayOff, err = appendReport(c.text, rep); err != nil {
			t.Fatal(err)
		}
		ln.end = len(c.text)
		c.lines = append(c.lines, ln)
	}
	before := append([]byte(nil), c.text...)
	st := newStream(c, func(line) bool { return true })
	dec := api.NewReportDecoder()
	for _, lap := range []int{0, 3, 400} {
		shift := st.redate(lap)
		if want := time.Duration(lap) * 24 * time.Hour; shift != want {
			t.Fatalf("lap %d: shift %v, want %v", lap, shift, want)
		}
		for i, want := range reports {
			var got api.Report
			if err := dec.Decode(&got, st.lineBody(i)); err != nil {
				t.Fatalf("lap %d line %d: %v", lap, i, err)
			}
			if !got.Scan.Time.Equal(want.Scan.Time.AddDate(0, 0, lap)) {
				t.Errorf("lap %d line %d: scan time %v, want %v + %d days", lap, i, got.Scan.Time, want.Scan.Time, lap)
			}
			got.Scan.Time = want.Scan.Time
			if got.BusID != want.BusID || got.RouteID != want.RouteID || got.PhoneID != want.PhoneID ||
				len(got.Scan.Readings) != len(want.Scan.Readings) {
				t.Errorf("lap %d line %d: decoded %+v, want %+v", lap, i, got, want)
			}
			for k := range want.Scan.Readings {
				if got.Scan.Readings[k] != want.Scan.Readings[k] {
					t.Errorf("lap %d line %d reading %d: %+v, want %+v", lap, i, k, got.Scan.Readings[k], want.Scan.Readings[k])
				}
			}
		}
	}
	if !bytes.Equal(c.text, before) {
		t.Error("redating a stream changed the corpus it was copied from")
	}
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	a, err := buildCorpus(toyScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildCorpus(toyScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildCorpus(toyScale, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.text) == 0 || !bytes.Equal(a.text, b.text) {
		t.Error("one seed rendered two different corpora")
	}
	if bytes.Equal(a.text, c.text) {
		t.Error("two seeds rendered the same corpus")
	}
	for i := 1; i < len(a.lines); i++ {
		if a.lines[i].deliver.Before(a.lines[i-1].deliver) {
			t.Fatalf("line %d is delivered before line %d", i, i-1)
		}
	}
}

func TestFreshnessSamplesFromDueTime(t *testing.T) {
	f := &freshness{
		busIdx: map[string]int32{"a": 0},
		perBus: map[int32][]need{0: {
			{frame: 0, scan: 100, due: 50 * time.Millisecond},
			{frame: 1, scan: 200, due: 100 * time.Millisecond},
			{frame: 2, scan: 300, due: 150 * time.Millisecond},
		}},
		cursor: map[int32]int{},
	}
	f.observe("a", time.Unix(0, 90), 60*time.Millisecond) // older than frame 0's scan
	f.observe("unknown", time.Unix(0, 999), 60*time.Millisecond)
	if len(f.samples) != 0 {
		t.Fatalf("sampled %v before any frame was covered", f.samples)
	}
	f.observe("a", time.Unix(0, 250), 130*time.Millisecond) // covers frames 0 and 1 at once
	if len(f.samples) != 2 || f.samples[0].v != 80 || f.samples[1].v != 30 {
		t.Fatalf("samples = %v, want 80 ms and 30 ms", f.samples)
	}
	if !f.covers("a", time.Unix(0, 250), 1) || f.covers("a", time.Unix(0, 250), 2) {
		t.Error("covers disagrees with the scan times")
	}
	if got := f.unobserved(200 * time.Millisecond); got != 1 {
		t.Errorf("unobserved = %d, want 1", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchSmoke drives all four workloads at toy scale, both kinds of run,
// and holds what they emit against BENCHMARK.json: the same workload and
// metric names, each once, each with a unit and a finite value.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads over loopback")
	}
	bm, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bm.Workloads), len(workloadNames))
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range bm.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bm.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for i, wl := range bm.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, wl.Name, workloadNames[i])
		}
		for trace := 0; trace <= 1; trace++ {
			res, err := runWorkload(runConfig{workload: wl.Name, seed: 3, seconds: 0.5, trace: trace == 1,
				sc: toyScale, workDir: t.TempDir(), outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl.Name, trace, err)
			}
			for _, f := range res.faults {
				t.Errorf("%s trace=%d: %s", wl.Name, trace, f)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s trace=%d: %d operations, %d failed", wl.Name, trace, res.attempted, res.failed)
			}
			if len(res.metrics) != len(want[trace]) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json has %d", wl.Name, trace, len(res.metrics), len(want[trace]))
			}
			for name, m := range res.metrics {
				unit, ok := want[trace][name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s is not in BENCHMARK.json", wl.Name, trace, name)
				case unit != m.Unit || m.Unit == "":
					t.Errorf("%s trace=%d: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, name, m.Unit, unit)
				case !metricName.MatchString(name):
					t.Errorf("metric name %q is outside the contract's alphabet", name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%d: metric %s = %v", wl.Name, trace, name, m.Value)
				}
			}
			if trace == 1 && res.tracePath == "" {
				t.Errorf("%s: traced run wrote no span file", wl.Name)
			}
		}
	}
}
