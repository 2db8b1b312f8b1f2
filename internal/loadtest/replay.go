package loadtest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/client"
	"wilocator/internal/server"
	"wilocator/internal/traveltime"
)

// NewService assembles a fresh service + empty travel-time store over the
// shared world. Each replay gets its own service so final states can be
// compared.
func NewService(w *World, cfg server.Config) (*server.Service, *traveltime.Store, error) {
	store := traveltime.NewStore(traveltime.PaperPlan())
	svc, err := server.NewService(w.Dia, store, cfg)
	if err != nil {
		return nil, nil, err
	}
	return svc, store, nil
}

// Tally summarises one replay. Every field is a pure function of the
// per-bus streams (never of cross-bus interleaving), so a sequential and a
// concurrent replay of the same streams must produce identical tallies.
type Tally struct {
	Delivered   int // reports pushed into Ingest
	Accepted    int // buffered into a fusion bucket
	LateDropped int // dropped with api.ReasonLateScan
	Located     int // reports that completed a fusion window with a fix
	Errors      int // Ingest errors (must be 0 for well-formed streams)
}

func (t Tally) String() string {
	return fmt.Sprintf("delivered=%d accepted=%d late=%d located=%d errors=%d",
		t.Delivered, t.Accepted, t.LateDropped, t.Located, t.Errors)
}

func (t *Tally) add(resp api.IngestResponse, err error) {
	t.Delivered++
	switch {
	case err != nil:
		t.Errors++
	case resp.Accepted:
		t.Accepted++
		if resp.Located {
			t.Located++
		}
	case resp.Reason == api.ReasonLateScan:
		t.LateDropped++
	}
}

// ReplaySequential delivers the streams on one goroutine, round-robin
// across buses (in-order within each bus), mimicking a global arrival-time
// order. This is the reference replay the concurrent one is compared to.
func ReplaySequential(svc *server.Service, streams []BusStream) Tally {
	return ReplayRange(svc, streams, 0, -1)
}

// ReplayRange delivers the round-robin positions [skip, skip+limit) of the
// global delivery order ReplaySequential uses (limit < 0 = to the end).
// Splitting one order into consecutive ranges lets the chaos harness stop
// a replay at an exact report count ("crash here"), recover, and resume
// where the dead server left off.
func ReplayRange(svc *server.Service, streams []BusStream, skip, limit int) Tally {
	return ReplayVia(streams, skip, limit, svc.Ingest)
}

// ReplayVia is ReplayRange with a pluggable delivery function: the same
// global round-robin order, but each report handed to deliver instead of a
// single service — so a cluster reached over HTTP and a reference service
// can be fed byte-identical subsequences and their tallies compared.
func ReplayVia(streams []BusStream, skip, limit int, deliver func(api.Report) (api.IngestResponse, error)) Tally {
	var tally Tally
	pos := 0
	for k := 0; ; k++ {
		delivered := false
		for _, st := range streams {
			if k >= len(st.Reports) {
				continue
			}
			delivered = true
			if pos >= skip && (limit < 0 || pos < skip+limit) {
				resp, err := deliver(st.Reports[k])
				tally.add(resp, err)
			}
			pos++
			if limit >= 0 && pos >= skip+limit {
				return tally
			}
		}
		if !delivered {
			return tally
		}
	}
}

// ReplayConcurrent delivers each bus's stream on its own goroutine (the
// fan-in of a real fleet) while queryWorkers goroutines hammer the read API
// — Vehicles, Arrivals, TrafficMap, Anomalies, Trajectory, Stats — until
// ingestion finishes. Query errors other than unknown-bus Trajectory
// lookups are reported through queryErr.
func ReplayConcurrent(svc *server.Service, streams []BusStream, queryWorkers int) (Tally, error) {
	var (
		delivered, accepted, late, located, errs atomic.Int64
		queryErr                                 atomic.Value
		ingestWG, queryWG                        sync.WaitGroup
	)
	stop := make(chan struct{})

	for q := 0; q < queryWorkers; q++ {
		queryWG.Add(1)
		go func(q int) {
			defer queryWG.Done()
			st := streams[q%len(streams)]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				svc.Vehicles("")
				svc.Vehicles(st.RouteID)
				if _, err := svc.Arrivals(st.RouteID, 1); err != nil {
					queryErr.Store(fmt.Errorf("arrivals(%s): %w", st.RouteID, err))
				}
				if _, err := svc.TrafficMap(""); err != nil {
					queryErr.Store(fmt.Errorf("traffic map: %w", err))
				}
				if _, err := svc.Anomalies(""); err != nil {
					queryErr.Store(fmt.Errorf("anomalies: %w", err))
				}
				// Unknown-bus errors are expected before the bus registers.
				_, _ = svc.Trajectory(st.BusID)
				svc.Stats()
			}
		}(q)
	}

	for _, st := range streams {
		ingestWG.Add(1)
		go func(st BusStream) {
			defer ingestWG.Done()
			for _, rep := range st.Reports {
				resp, err := svc.Ingest(rep)
				delivered.Add(1)
				switch {
				case err != nil:
					errs.Add(1)
				case resp.Accepted:
					accepted.Add(1)
					if resp.Located {
						located.Add(1)
					}
				case resp.Reason == api.ReasonLateScan:
					late.Add(1)
				}
			}
		}(st)
	}

	ingestWG.Wait()
	close(stop)
	queryWG.Wait()

	tally := Tally{
		Delivered:   int(delivered.Load()),
		Accepted:    int(accepted.Load()),
		LateDropped: int(late.Load()),
		Located:     int(located.Load()),
		Errors:      int(errs.Load()),
	}
	if e, ok := queryErr.Load().(error); ok {
		return tally, e
	}
	return tally, nil
}

// ReplayBatched delivers each bus's stream over POST /v1/reports/batch,
// one uploader goroutine per bus shipping NDJSON frames of batchSize
// through the shared typed client. Per-bus report order is preserved end
// to end: an uploader sends its next frame only after the previous one is
// acknowledged, and server-side, one bus's reports always land in the same
// ingest ring (a FIFO). Cross-bus interleaving is arbitrary — exactly the
// nondeterminism the state-equivalence tests quantify over.
func ReplayBatched(c *client.Client, streams []BusStream, batchSize int) (Tally, error) {
	if batchSize <= 0 {
		batchSize = 256
	}
	var (
		delivered, accepted, late, located, errs atomic.Int64
		sendErr                                  atomic.Value
		wg                                       sync.WaitGroup
	)
	for _, st := range streams {
		wg.Add(1)
		go func(st BusStream) {
			defer wg.Done()
			for from := 0; from < len(st.Reports); from += batchSize {
				to := from + batchSize
				if to > len(st.Reports) {
					to = len(st.Reports)
				}
				resp, err := c.PostReportBatch(context.Background(), st.Reports[from:to])
				if err != nil {
					sendErr.Store(fmt.Errorf("batch upload bus %s [%d:%d]: %w", st.BusID, from, to, err))
					return
				}
				delivered.Add(int64(resp.Received))
				accepted.Add(int64(resp.Accepted))
				located.Add(int64(resp.Located))
				late.Add(int64(resp.LateDropped))
				errs.Add(int64(resp.Rejected))
			}
		}(st)
	}
	wg.Wait()
	tally := Tally{
		Delivered:   int(delivered.Load()),
		Accepted:    int(accepted.Load()),
		LateDropped: int(late.Load()),
		Located:     int(located.Load()),
		Errors:      int(errs.Load()),
	}
	if e, ok := sendErr.Load().(error); ok {
		return tally, e
	}
	return tally, nil
}

// FlattenReports returns the streams' reports in the exact global
// round-robin order ReplaySequential delivers them, so a caller can chunk
// one deterministic delivery order into batches (and crash between them).
func FlattenReports(streams []BusStream) []api.Report {
	var out []api.Report
	ReplayVia(streams, 0, -1, func(rep api.Report) (api.IngestResponse, error) {
		out = append(out, rep)
		return api.IngestResponse{Accepted: true}, nil
	})
	return out
}

// Trajectories fetches the final trajectory of every bus in the fleet.
func Trajectories(svc *server.Service, streams []BusStream) (map[string]api.TrajectoryResponse, error) {
	out := make(map[string]api.TrajectoryResponse, len(streams))
	for _, st := range streams {
		tr, err := svc.Trajectory(st.BusID)
		if err != nil {
			return nil, err
		}
		out[st.BusID] = tr
	}
	return out, nil
}

// DiffTrajectories compares two per-bus trajectory maps fix-for-fix,
// returning a descriptive error on the first divergence.
func DiffTrajectories(a, b map[string]api.TrajectoryResponse) error {
	if len(a) != len(b) {
		return fmt.Errorf("loadtest: bus counts differ: %d vs %d", len(a), len(b))
	}
	for id, ta := range a {
		tb, ok := b[id]
		if !ok {
			return fmt.Errorf("loadtest: bus %s missing in second replay", id)
		}
		if ta.RouteID != tb.RouteID {
			return fmt.Errorf("loadtest: bus %s routes differ: %q vs %q", id, ta.RouteID, tb.RouteID)
		}
		if len(ta.Fixes) != len(tb.Fixes) {
			return fmt.Errorf("loadtest: bus %s fix counts differ: %d vs %d", id, len(ta.Fixes), len(tb.Fixes))
		}
		for i := range ta.Fixes {
			fa, fb := ta.Fixes[i], tb.Fixes[i]
			if fa.Lat != fb.Lat || fa.Lng != fb.Lng || fa.Arc != fb.Arc || !fa.Time.Equal(fb.Time) {
				return fmt.Errorf("loadtest: bus %s fix %d differs: %+v vs %+v", id, i, fa, fb)
			}
		}
	}
	return nil
}

// FixedClock returns a Now function pinned to at, for deterministic
// staleness and traffic-map queries during replays.
func FixedClock(at time.Time) func() time.Time {
	return func() time.Time { return at }
}
