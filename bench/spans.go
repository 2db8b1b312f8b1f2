package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wilocator/internal/server"
	"wilocator/internal/traveltime"
)

// Span names. One span is recorded per boundary crossing, from the
// benchmark's own files: around the client's request, around the server's
// handler, and around the three hooks the program already exposes on its
// durable path.
const (
	spanClient      = "client.request"
	spanHTTPBatch   = "server.http.batch"
	spanHTTPReport  = "server.http.report"
	spanHTTPGet     = "server.http.get"
	spanHTTPStream  = "server.http.stream"
	spanRecord      = "traveltime.record"
	spanGroupCommit = "traveltime.group_commit"
	spanWALAppend   = "traveltime.wal_append"
	spanWALFsync    = "traveltime.wal_fsync"
)

// spanHeader carries the client span's ID to the server-side middleware, so
// the handler span names its parent.
const spanHeader = "X-Bench-Span"

// span is one recorded interval. Parent is 0 where the seam carries no
// caller identity (the persister hooks); Request groups the spans of one
// HTTP request.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Request uint64 `json:"request"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// spanNames indexes the span names, so that a span at rest holds no pointer.
var spanNames = []string{spanClient, spanHTTPBatch, spanHTTPReport, spanHTTPGet, spanHTTPStream,
	spanRecord, spanGroupCommit, spanWALAppend, spanWALFsync}

// rawSpan is a span as the recorder keeps it: pointer-free, so the garbage
// collector never scans the hundreds of thousands a traced window records.
type rawSpan struct {
	id, parent, request uint64
	start, end          int64
	name                uint8 // index into spanNames
}

// The recorder allocates spans a chunk at a time and never copies one; it
// stops recording (and says so) after maxChunks of them, some four million
// spans.
const (
	spanChunk = 1 << 16
	maxChunks = 64
)

// recorder keeps spans in memory while it is on. The wrappers below are
// installed for the whole life of a traced server and test the switch on
// every call, so the same server serves the untraced slices of a traced run
// (one atomic load per seam) and the traced ones.
type recorder struct {
	on     atomic.Bool
	nextID atomic.Uint64
	epoch  time.Time // span times are ns since epoch
	nameID map[string]uint8

	// A span claims slot next-1 with one atomic add and writes it without a
	// lock: four goroutines record at once on the single-report door, and a
	// mutex there showed in the throughput. mu guards only the allocation of
	// a chunk.
	next   atomic.Uint64
	chunks [maxChunks]atomic.Pointer[[spanChunk]rawSpan]
	mu     sync.Mutex
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), nameID: map[string]uint8{}}
	for i, name := range spanNames {
		r.nameID[name] = uint8(i)
	}
	return r
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) id() uint64 { return r.nextID.Add(1) }

// record stores the span [start, end] under name, one of spanNames.
func (r *recorder) record(id, parent, request uint64, name string, start, end time.Time) {
	slot := r.next.Add(1) - 1
	c := slot / spanChunk
	if c >= maxChunks {
		return // counted by take
	}
	chunk := r.chunks[c].Load()
	if chunk == nil {
		r.mu.Lock()
		if chunk = r.chunks[c].Load(); chunk == nil {
			chunk = new([spanChunk]rawSpan)
			r.chunks[c].Store(chunk)
		}
		r.mu.Unlock()
	}
	chunk[slot%spanChunk] = rawSpan{id: id, parent: parent, request: request, name: r.nameID[name],
		start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch))}
}

// take returns the spans recorded so far, in the order they were claimed,
// and how many were dropped for want of room. It must not run beside record.
func (r *recorder) take() (spans []span, dropped int) {
	n := r.next.Swap(0)
	if n > maxChunks*spanChunk {
		dropped, n = int(n-maxChunks*spanChunk), maxChunks*spanChunk
	}
	spans = make([]span, 0, n)
	for slot := uint64(0); slot < n; slot++ {
		s := r.chunks[slot/spanChunk].Load()[slot%spanChunk]
		spans = append(spans, span{ID: s.id, Parent: s.parent, Name: spanNames[s.name],
			StartNS: s.start, EndNS: s.end, Request: s.request})
	}
	for i := range r.chunks {
		r.chunks[i].Store(nil)
	}
	return spans, dropped
}

// middleware wraps the program's handler with the server-side span.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.enabled() {
			next.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		next.ServeHTTP(w, req)
		r.record(r.id(), parent, parent, routeSpan(req), start, time.Now())
	})
}

func routeSpan(req *http.Request) string {
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/reports/batch":
		return spanHTTPBatch
	case req.Method == http.MethodPost:
		return spanHTTPReport
	case req.URL.Path == "/v1/stream":
		return spanHTTPStream
	default:
		return spanHTTPGet
	}
}

// sink wraps server.Config.Sink.
func (r *recorder) sink(next func(traveltime.Record) error) func(traveltime.Record) error {
	return func(rec traveltime.Record) error {
		if !r.enabled() {
			return next(rec)
		}
		start := time.Now()
		err := next(rec)
		r.record(r.id(), 0, 0, spanRecord, start, time.Now())
		return err
	}
}

// groupCommit wraps HandlerConfig.GroupCommit. The span covers EndBatch —
// the fsync that makes the frame durable — not the window the frame's
// lines are processed in.
type groupCommit struct {
	r    *recorder
	next server.GroupCommit
}

func (g groupCommit) BeginBatch() { g.next.BeginBatch() }

func (g groupCommit) EndBatch() error {
	if !g.r.enabled() {
		return g.next.EndBatch()
	}
	start := time.Now()
	err := g.next.EndBatch()
	g.r.record(g.r.id(), 0, 0, spanGroupCommit, start, time.Now())
	return err
}

// onOp wraps PersistConfig.OnOp, which delivers a duration only: the span
// ends now and starts that long ago.
func (r *recorder) onOp(next func(string, time.Duration)) func(string, time.Duration) {
	return func(op string, d time.Duration) {
		next(op, d)
		if !r.enabled() {
			return
		}
		var name string
		switch op {
		case traveltime.WALOpAppend:
			name = spanWALAppend
		case traveltime.WALOpFsync:
			name = spanWALFsync
		default:
			return
		}
		end := time.Now()
		r.record(r.id(), 0, 0, name, end.Add(-d), end)
	}
}

// contains declares which spans run inside which, for the seams that carry
// no parent. Self time is computed by sums over these sets, so overlapping
// requests on two connections cannot be mis-nested by their timestamps. A
// WAL fsync runs inside a Record call (every 64th record outside a frame) or
// inside a group commit; the two share it, so they are one layer here.
var contains = map[string][]string{
	spanClient:     {spanHTTPBatch, spanHTTPReport, spanHTTPGet},
	spanHTTPBatch:  {spanRecord, spanGroupCommit},
	spanHTTPReport: {spanRecord},
	"traveltime":   {spanWALAppend, spanWALFsync},
}

// layerOf folds span names into the layer whose self time they add up to.
var layerOf = map[string]string{
	spanRecord:      "traveltime",
	spanGroupCommit: "traveltime",
}

// selfTimes returns, per layer, the summed duration of its spans and that
// sum minus the summed duration of the spans it contains.
func selfTimes(spans []span) (total, self map[string]time.Duration) {
	byName := map[string]time.Duration{}
	for _, s := range spans {
		byName[s.Name] += s.dur()
	}
	total = map[string]time.Duration{}
	for name, d := range byName {
		if l, ok := layerOf[name]; ok {
			name = l
		}
		total[name] += d
	}
	self = map[string]time.Duration{}
	for name, d := range total {
		for _, c := range contains[name] {
			d -= byName[c]
		}
		self[name] = d
	}
	return total, self
}

// spanDurations returns the durations of the spans called name, in the
// given unit, in recording order.
func spanDurations(spans []span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// traceFileCap bounds how many spans a trace file holds; the layer figures
// are computed from every span recorded.
const traceFileCap = 100_000

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Recorded  int                `json:"spans_recorded"`
	Truncated bool               `json:"truncated"`
	Counters  map[string]float64 `json:"counter_deltas"`
	Spans     []span             `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf.Recorded = len(tf.Spans)
	if len(tf.Spans) > traceFileCap {
		tf.Spans, tf.Truncated = tf.Spans[:traceFileCap], true
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
