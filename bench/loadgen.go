package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/server"
)

// The generator's own limits. A workload is at most this many generator
// goroutines and this many open connections, on every machine: the load never
// scales with the core count.
const (
	maxGenerators  = 2
	maxConnections = 2
)

// limits holds a workload to those caps as it runs: it counts the generator
// goroutines running and the connections open, turns away the one that would
// exceed a cap, and keeps what it turned away for the run's report.
type limits struct {
	generators, conns atomic.Int32

	mu       sync.Mutex
	breaches []string
}

func (l *limits) breach(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	l.mu.Lock()
	l.breaches = append(l.breaches, err.Error())
	l.mu.Unlock()
	return err
}

// generator runs fn as one of the workload's generator goroutines, or not at
// all when maxGenerators are running already.
func (l *limits) generator(fn func()) {
	defer l.generators.Add(-1)
	if l.generators.Add(1) > maxGenerators {
		_ = l.breach("a generator goroutine beyond the cap of %d was asked for", maxGenerators) // kept for the report
		return
	}
	fn()
}

// open claims a connection slot and release gives it back.
func (l *limits) open() error {
	if l.conns.Add(1) > maxConnections {
		l.conns.Add(-1)
		return l.breach("a connection beyond the cap of %d was asked for", maxConnections)
	}
	return nil
}

func (l *limits) release() { l.conns.Add(-1) }

// conn is one generator's single HTTP/1.1 connection, counted against the
// workload's limits from the dial until it is closed.
type conn struct {
	hc  *http.Client
	lim *limits
	buf bytes.Buffer // response body scratch

	mu     sync.Mutex
	dialed []*countedConn
}

// countedConn gives its slot back when it is closed, by whichever side.
type countedConn struct {
	net.Conn
	once sync.Once
	lim  *limits
}

func (c *countedConn) Close() error {
	c.once.Do(c.lim.release)
	return c.Conn.Close()
}

func newConn(lim *limits, timeout time.Duration) *conn {
	c := &conn{lim: lim}
	c.hc = &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			DialContext:         c.dial,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
	return c
}

func (c *conn) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	if err := c.lim.open(); err != nil {
		return nil, err
	}
	var d net.Dialer
	nc, err := d.DialContext(ctx, network, addr)
	if err != nil {
		c.lim.release()
		return nil, err
	}
	cc := &countedConn{Conn: nc, lim: c.lim}
	c.mu.Lock()
	c.dialed = append(c.dialed, cc)
	c.mu.Unlock()
	return cc, nil
}

// close shuts every socket this conn dialed. The transport parks a connection
// as idle a moment after the response body is read, so CloseIdleConnections
// alone can miss the one that just answered; closing the sockets cannot.
func (c *conn) close() {
	c.hc.CloseIdleConnections()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cc := range c.dialed {
		_ = cc.Close() // closing a closed socket is the expected case here
	}
	c.dialed = nil
}

// do sends one request and reads the whole response body into c.buf. It
// returns when the request left and when the body was fully read — the two
// instants every caller times from — and records them as the client span
// while rec is on.
func (c *conn) do(rec *recorder, method, url string, body []byte, header [2]string) (resp *http.Response, sent, done time.Time, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, sent, done, err
	}
	if header[0] != "" {
		req.Header.Set(header[0], header[1])
	}
	var id uint64
	if rec.enabled() {
		id = rec.id()
		req.Header[spanHeader] = []string{strconv.FormatUint(id, 10)}
	}
	sent = time.Now()
	resp, err = c.hc.Do(req)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		_ = resp.Body.Close()
	}
	done = time.Now()
	if id != 0 && err == nil {
		rec.record(id, 0, id, spanClient, sent, done)
	}
	return resp, sent, done, err
}

// tally sums what the server said about the reports of one lap.
type tally struct {
	received, accepted, located, late, rejected int
}

func (t tally) String() string {
	return fmt.Sprintf("received=%d accepted=%d located=%d late=%d rejected=%d",
		t.received, t.accepted, t.located, t.late, t.rejected)
}

// faultLog keeps the first few things that went wrong on one connection; a
// broken server fails every request the same way.
type faultLog []string

func (f *faultLog) add(format string, args ...any) {
	if len(*f) < 8 {
		*f = append(*f, fmt.Sprintf(format, args...))
	}
}

// ops counts operations against failures. A failed operation has no
// latency sample: it counts as missing every latency figure.
type ops struct{ attempted, failed int }

// closedWriter replays its share of the corpus in laps over one connection,
// sending a unit only after the previous one is acknowledged. A unit is a
// frame on the batch door and a single report on the single-report door.
type closedWriter struct {
	st     *stream
	c      *conn
	base   string
	single bool
	clock  *simClock
	rec    *recorder
	ref    tally // what one lap of this share must add up to
	// unchecked skips the comparison with ref: the live workloads' warm-up
	// replays part of a day, which has no reference.
	unchecked bool

	lap, next int // the unit to send next
	shift     time.Duration
	cur       tally

	acks    []sample
	reports int // reports acknowledged
	laps    int // laps completed and checked
	ops     ops
	faults  faultLog
}

func (w *closedWriter) units() int {
	if w.single {
		return len(w.st.lines)
	}
	return len(w.st.frames)
}

// sendNext sends the next unit, folds the verdicts into the lap's tally, and
// returns when the unit was sent.
func (w *closedWriter) sendNext(epoch time.Time) (sent time.Time) {
	if w.next == 0 {
		w.shift = w.st.redate(w.lap)
	}
	var body []byte
	var newest time.Time
	var reports int
	url := w.base + api.PathReportsBatch
	if w.single {
		body, newest, reports = w.st.lineBody(w.next), w.st.lines[w.next].scan, 1
		url = w.base + api.PathReports
	} else {
		f := w.st.frames[w.next]
		body, newest, reports = w.st.body(f), f.newest, f.last-f.first
	}
	w.clock.advance(newest.Add(w.shift))

	resp, sent, done, err := w.c.do(w.rec, http.MethodPost, url, body, [2]string{})
	w.ops.attempted++
	switch {
	case err != nil:
		w.ops.failed++
		w.faults.add("lap %d unit %d: %v", w.lap, w.next, err)
	case resp.StatusCode != http.StatusOK:
		w.ops.failed++
		w.faults.add("lap %d unit %d: status %d: %s", w.lap, w.next, resp.StatusCode, w.c.buf.Bytes())
	default:
		w.acks = append(w.acks, sample{at: int64(done.Sub(epoch)), v: float64(done.Sub(sent)) / float64(time.Millisecond)})
		w.reports += reports
		w.count(w.c.buf.Bytes())
	}

	w.next++
	if w.next == w.units() {
		if !w.unchecked && w.cur != w.ref {
			w.faults.add("lap %d tally %v, sequential reference %v", w.lap, w.cur, w.ref)
		}
		w.laps++
		w.lap, w.next, w.cur = w.lap+1, 0, tally{}
	}
	return sent
}

func (w *closedWriter) count(body []byte) {
	if !w.single {
		var br api.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			w.faults.add("lap %d unit %d: bad batch response: %v", w.lap, w.next, err)
			return
		}
		w.cur.received += br.Received
		w.cur.accepted += br.Accepted
		w.cur.located += br.Located
		w.cur.late += br.LateDropped
		w.cur.rejected += br.Rejected
		return
	}
	w.cur.received++
	switch {
	case bytes.Contains(body, []byte(`"accepted":true`)):
		w.cur.accepted++
		if bytes.Contains(body, []byte(`"located":true`)) {
			w.cur.located++
		}
	case bytes.Contains(body, []byte(`"reason":"`+api.ReasonLateScan+`"`)):
		w.cur.late++
	default:
		w.cur.rejected++
	}
}

// run sends units until the deadline passes or, when laps > 0, until that
// many more laps are complete.
func (w *closedWriter) run(epoch, until time.Time, laps int) {
	target := w.laps + laps
	for {
		if laps > 0 && w.laps >= target {
			return
		}
		if laps == 0 && !time.Now().Before(until) {
			return
		}
		w.sendNext(epoch)
	}
}

// openLoop is the open-loop schedule: send(i) runs when dues[i] has passed
// since epoch, whether or not the previous send returned in time. An
// acknowledged send is timed from when it started to when it returned. How
// long a frame waited for its turn is kept beside that: lag is how long after
// both the due instant and the previous send's return the generator took to
// start — its own lateness — and behind is how far past its due instant each
// send started, whatever the reason; a backlog shows there, and in the
// freshness samples, which run from the due instant. now and sleep are the
// clock, injectable for the scheduler's test.
func openLoop(epoch time.Time, dues []time.Duration, now func() time.Time, sleep func(time.Duration), send func(i int) bool) (acks, lags, behind []sample) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	free := epoch // when the previous send returned
	for i, d := range dues {
		due := epoch.Add(d)
		if wait := due.Sub(now()); wait > 0 {
			sleep(wait)
		}
		start := now()
		ready := due // the earliest the send could have started
		if free.After(ready) {
			ready = free
		}
		at := int64(start.Sub(epoch))
		lags = append(lags, sample{at: at, v: ms(start.Sub(ready))})
		behind = append(behind, sample{at: at, v: ms(start.Sub(due))})
		ok := send(i)
		free = now()
		if ok {
			acks = append(acks, sample{at: int64(free.Sub(epoch)), v: ms(free.Sub(start))})
		}
	}
	return acks, lags, behind
}

// osSleep sleeps in the kernel, not on a runtime timer. A runtime timer is
// noticed late when its P is busy — up to sysmon's 10 ms back-off while a
// publish holds the P — and the open-loop writer must not be that late; a
// thread blocked in nanosleep(2) is woken by the kernel on time.
func osSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// liveWriter plays frames on their schedule over one connection.
type liveWriter struct {
	st   *stream
	c    *conn
	base string
	rec  *recorder

	acks, lags, behind []sample
	reports            int
	ops                ops
	faults             faultLog
	// acked[i] is when frame i was acknowledged, in ns since the window
	// opened; 0 until then. The reader consults it to spot stale reads.
	acked []atomic.Int64
}

// run plays frames[:to]; frame i is due at epoch + frames[i].due.
func (w *liveWriter) run(epoch time.Time, to int) {
	dues := make([]time.Duration, 0, to)
	for _, f := range w.st.frames[:to] {
		dues = append(dues, f.due)
	}
	w.acks, w.lags, w.behind = openLoop(epoch, dues, time.Now, osSleep, func(i int) bool {
		f := w.st.frames[i]
		resp, _, _, err := w.c.do(w.rec, http.MethodPost, w.base+api.PathReportsBatch, w.st.body(f), [2]string{})
		w.ops.attempted++
		if err != nil || resp.StatusCode != http.StatusOK {
			w.ops.failed++
			w.faults.add("frame %d: %v %s", i, err, w.c.buf.Bytes())
			return false
		}
		w.reports += f.last - f.first
		if w.acked != nil {
			w.acked[i].Store(int64(time.Since(epoch)))
		}
		return true
	})
}

// need is one (frame, bus) pair awaiting its first sighting: the bus's
// newest scan time in the frame and the frame's due time.
type need struct {
	frame int
	scan  int64         // unix ns
	due   time.Duration // since the window opened
}

// freshness times how long after a frame was due a reader first sees each
// bus it carried at or past that frame's scan time. It belongs to the
// reader's goroutine.
type freshness struct {
	busIdx  map[string]int32
	perBus  map[int32][]need
	cursor  map[int32]int
	samples []sample
}

// newFreshness lists the pairs of frames[:to], optionally only for the buses
// of one route.
func newFreshness(c *corpus, st *stream, to int, route string) *freshness {
	f := &freshness{busIdx: map[string]int32{}, perBus: map[int32][]need{}, cursor: map[int32]int{}}
	for i, b := range c.world.Buses {
		if route == "" || b.RouteID == route {
			f.busIdx[b.ID] = int32(i)
		}
	}
	tracked := map[int32]bool{}
	for _, i := range f.busIdx {
		tracked[i] = true
	}
	for k, fr := range st.frames[:to] {
		newest := map[int32]int64{}
		for _, ln := range st.lines[fr.first:fr.last] {
			if tracked[ln.bus] && ln.scan.UnixNano() > newest[ln.bus] {
				newest[ln.bus] = ln.scan.UnixNano()
			}
		}
		for bus, scan := range newest {
			f.perBus[bus] = append(f.perBus[bus], need{frame: k, scan: scan, due: fr.due})
		}
	}
	return f
}

// observe records that bus was seen with the given update time at recv
// (since the window opened), sampling every pair that sighting covers.
func (f *freshness) observe(busID string, updated time.Time, recv time.Duration) {
	bus, ok := f.busIdx[busID]
	if !ok {
		return
	}
	needs, u := f.perBus[bus], updated.UnixNano()
	i := f.cursor[bus]
	for ; i < len(needs) && needs[i].scan <= u && needs[i].due <= recv; i++ {
		f.samples = append(f.samples, sample{at: int64(recv), v: float64(recv-needs[i].due) / float64(time.Millisecond)})
	}
	f.cursor[bus] = i
}

// covers reports whether bus, seen with the given update time, already
// shows what frame k carried for it. A bus the frame did not carry is
// covered.
func (f *freshness) covers(busID string, updated time.Time, k int) bool {
	bus, ok := f.busIdx[busID]
	if !ok {
		return true
	}
	needs := f.perBus[bus]
	i := sort.Search(len(needs), func(i int) bool { return needs[i].frame >= k })
	return i == len(needs) || needs[i].frame != k || needs[i].scan <= updated.UnixNano()
}

// unobserved counts the pairs due by upTo that no sighting covered: the bus
// finished its trip, or never got a fix.
func (f *freshness) unobserved(upTo time.Duration) int {
	n := 0
	for bus, needs := range f.perBus {
		for _, nd := range needs[f.cursor[bus]:] {
			if nd.due <= upTo {
				n++
			}
		}
	}
	return n
}

// vehicleLite is what the reader needs of an api.VehicleStatus.
type vehicleLite struct {
	BusID   string    `json:"busId"`
	Updated time.Time `json:"updated"`
}

// pollReader is the rider who polls: one connection, closed loop,
// round-robin over the three cacheable GETs, each with If-None-Match of the
// last ETag seen for that URL. It starts a request no sooner than pace after
// it started the previous one: the writer dirties the snapshot once per
// frame, so a reader with no think time at all would find it clean on all
// but the first request after each frame, and its figures would be those of
// a cache hit over loopback, not of the server keeping the snapshot current.
type pollReader struct {
	pace  time.Duration
	c     *conn
	rec   *recorder
	svc   *server.Service // read for the publish counter only
	urls  []string        // request i goes to urls[i%len(urls)]
	fresh *freshness
	acked []atomic.Int64 // the writer's acknowledgement times

	etags  map[string]string
	hashes map[string]uint64 // url + ETag → body hash

	gets, cached, publishing []sample
	stale                    int // vehicles answers that missed an acknowledged frame
	ops                      ops
	faults                   faultLog
	stop                     atomic.Bool
}

// pollURLs builds the reader's deterministic rotation: vehicles, then one
// route's arrivals at a rotating stop, then that route's traffic map.
func pollURLs(base string, c *corpus) []string {
	var urls []string
	routes := c.world.Net.Routes()
	sort.Slice(routes, func(i, j int) bool { return routes[i].ID() < routes[j].ID() })
	for round := 0; round < 8; round++ {
		for _, rt := range routes {
			stop := (round*7 + 3) % rt.NumStops()
			urls = append(urls,
				base+api.PathVehicles,
				fmt.Sprintf("%s%s?route=%s&stop=%d", base, api.PathArrivals, rt.ID(), stop),
				fmt.Sprintf("%s%s?route=%s", base, api.PathTrafficMap, rt.ID()))
		}
	}
	return urls
}

// get issues request i and checks the caching contract on the answer. It
// returns the receive time and, for a vehicles 200, the decoded list.
func (r *pollReader) get(epoch time.Time, i int) (recv time.Time, vehicles []vehicleLite) {
	url := r.urls[i%len(r.urls)]
	var hdr [2]string
	if tag := r.etags[url]; tag != "" {
		hdr = [2]string{"If-None-Match", tag}
	}
	var before uint64
	traced := r.rec.enabled()
	if traced {
		before = r.svc.ReadStats().Publishes
	}
	resp, sentAt, recv, err := r.c.do(r.rec, http.MethodGet, url, nil, hdr)
	r.ops.attempted++
	fail := func(format string, args ...any) {
		r.ops.failed++
		r.faults.add(format, args...)
	}
	if err != nil {
		fail("GET %s: %v", url, err)
		return recv, nil
	}
	s := sample{at: int64(recv.Sub(epoch)), v: float64(recv.Sub(sentAt)) / float64(time.Millisecond)}
	switch resp.StatusCode {
	case http.StatusNotModified:
	case http.StatusOK:
		tag := resp.Header.Get("ETag")
		if tag == "" {
			fail("GET %s: 200 without an ETag", url)
			return recv, nil
		}
		// Equal (URL, ETag) pairs must carry equal bodies: a difference
		// is a torn read of the snapshot.
		h := fnv.New64a()
		_, _ = h.Write(r.c.buf.Bytes())
		key := url + "\x00" + tag
		if old, seen := r.hashes[key]; seen && old != h.Sum64() {
			fail("GET %s: two bodies under ETag %s", url, tag)
			return recv, nil
		}
		r.hashes[key] = h.Sum64()
		r.etags[url] = tag
		if strings.HasSuffix(url, api.PathVehicles) {
			if err := json.Unmarshal(r.c.buf.Bytes(), &vehicles); err != nil {
				fail("GET %s: %v", url, err)
				return recv, nil
			}
		}
	default:
		fail("GET %s: status %d", url, resp.StatusCode)
		return recv, nil
	}
	r.gets = append(r.gets, s)
	if traced {
		if r.svc.ReadStats().Publishes != before {
			r.publishing = append(r.publishing, s)
		} else {
			s.v *= 1000 // cached GETs are reported in µs
			r.cached = append(r.cached, s)
		}
	}
	return recv, vehicles
}

// run polls until told to stop, then on to the rotation's next vehicles
// request, so the last frames can still be sighted.
func (r *pollReader) run(epoch time.Time) {
	newest := -1 // the newest frame acknowledged so far
	for i := 0; ; i++ {
		stopping := r.stop.Load()
		started := time.Now()
		// A vehicles answer to a request sent after a frame's
		// acknowledgement that does not cover the frame is a stale read.
		for newest+1 < len(r.acked) && r.acked[newest+1].Load() != 0 {
			newest++
		}
		recv, vehicles := r.get(epoch, i)
		since := recv.Sub(epoch)
		staleRead := false
		for _, v := range vehicles {
			r.fresh.observe(v.BusID, v.Updated, since)
			if newest >= 0 && !r.fresh.covers(v.BusID, v.Updated, newest) {
				staleRead = true
			}
		}
		if staleRead {
			r.stale++
		}
		if stopping && strings.HasSuffix(r.urls[i%len(r.urls)], api.PathVehicles) {
			return
		}
		if wait := r.pace - time.Since(started); wait > 0 {
			time.Sleep(wait)
		}
	}
}

// streamReader is the rider who subscribes: one SSE connection on one route.
// It rebuilds the route's vehicle list from the snapshot and the deltas and
// checks the stream's own contract on the way.
type streamReader struct {
	url   string
	c     *conn // no timeout: the stream stays open until the harness cancels it
	fresh *freshness

	state     map[string]api.VehicleStatus
	epoch     atomic.Uint64 // last applied epoch
	events    int
	epochGaps []float64 // epoch distance between consecutive events
	ops       ops
	faults    faultLog
}

// run reads events until ctx is cancelled or the stream ends. ready is
// closed once the catch-up snapshot is applied, so the writer starts
// against a subscribed stream.
func (r *streamReader) run(ctx context.Context, epoch time.Time, ready chan<- struct{}) {
	r.state = map[string]api.VehicleStatus{}
	defer func() {
		if ready != nil {
			close(ready)
		}
	}()
	fail := func(format string, args ...any) {
		r.ops.failed++
		r.faults.add(format, args...)
	}
	defer r.c.close()
	r.ops.attempted++
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url, nil)
	if err != nil {
		fail("subscribe: %v", err)
		return
	}
	resp, err := r.c.hc.Do(req)
	if err != nil {
		fail("subscribe: %v", err)
		return
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		fail("subscribe: status %d", resp.StatusCode)
		return
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	var event string
	var data []byte
	for {
		ln, err := rd.ReadBytes('\n')
		if err != nil {
			return // the harness closed the stream, or the server shed it
		}
		ln = bytes.TrimRight(ln, "\n")
		switch {
		case bytes.HasPrefix(ln, []byte("event: ")):
			event = string(ln[len("event: "):])
		case bytes.HasPrefix(ln, []byte("data: ")):
			data = append(data[:0], ln[len("data: "):]...)
		case len(ln) == 0 && event != "":
			recv := time.Since(epoch)
			r.ops.attempted++
			r.events++
			var at uint64
			switch event {
			case api.EventSnapshot:
				var snap api.StreamSnapshot
				if err := json.Unmarshal(data, &snap); err != nil {
					fail("snapshot event: %v", err)
					return
				}
				clear(r.state)
				for _, v := range snap.Vehicles {
					r.state[v.BusID] = v
					r.fresh.observe(v.BusID, v.Updated, recv)
				}
				at = snap.Epoch
			case api.EventDelta:
				var d api.StreamDelta
				if err := json.Unmarshal(data, &d); err != nil {
					fail("delta event: %v", err)
					return
				}
				for _, v := range d.Updated {
					r.state[v.BusID] = v
					r.fresh.observe(v.BusID, v.Updated, recv)
				}
				for _, id := range d.Removed {
					delete(r.state, id)
				}
				at = d.Epoch
			default:
				fail("unknown event %q", event)
			}
			if last := r.epoch.Load(); last != 0 {
				if at <= last {
					fail("epoch %d after %d: epochs must strictly increase", at, last)
				}
				r.epochGaps = append(r.epochGaps, float64(at)-float64(last))
			}
			r.epoch.Store(at)
			if ready != nil {
				close(ready)
				ready = nil
			}
			event = ""
		}
	}
}

// vehicles returns the reconstructed list in bus-ID order.
func (r *streamReader) vehicles() []api.VehicleStatus {
	out := make([]api.VehicleStatus, 0, len(r.state))
	for _, v := range r.state {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].BusID < out[j].BusID })
	return out
}
