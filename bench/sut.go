package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/obs"
	"wilocator/internal/roadnet"
	"wilocator/internal/server"
	"wilocator/internal/svd"
	"wilocator/internal/traveltime"
	"wilocator/internal/wifi"
)

// simClock is the harness's simulated clock, handed to the server as
// Config.Now. Closed-loop workloads set it to the newest scan time sent;
// live workloads let it run at K simulated seconds per wall second.
type simClock struct {
	fixed   atomic.Int64 // unix ns served while not running
	running atomic.Bool
	// A running clock reads simStart + speedup·(wall − wallStart).
	simStart, wallStart time.Time
	speedup             int
}

func (c *simClock) Now() time.Time {
	if c.running.Load() {
		return c.simStart.Add(time.Since(c.wallStart) * time.Duration(c.speedup))
	}
	return time.Unix(0, c.fixed.Load()).UTC()
}

// advance moves a stopped clock forward to t; it never moves it back.
func (c *simClock) advance(t time.Time) {
	ns := t.UnixNano()
	for {
		cur := c.fixed.Load()
		if ns <= cur || c.fixed.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// start lets the clock run from simStart, which is now.
func (c *simClock) start(simStart time.Time, speedup int) {
	c.simStart, c.wallStart, c.speedup = simStart, time.Now(), speedup
	c.running.Store(true)
}

// freeze stops a running clock at the instant it shows.
func (c *simClock) freeze() {
	c.advance(c.Now())
	c.running.Store(false)
}

// sut is the system under test: the real service, handler and persister,
// wired the way cmd/wilocator-server wires them by default, listening on a
// loopback socket.
type sut struct {
	dir   string
	dia   *svd.Diagram
	store *traveltime.Store
	pers  *traveltime.Persister
	svc   *server.Service
	reg   *obs.Registry
	clock *simClock
	base  string // http://127.0.0.1:<port>

	srv      *http.Server
	serveErr chan error
	// scrapePublishes counts the snapshot publishes the harness's own
	// scrapes of the registry caused.
	scrapePublishes atomic.Uint64
}

// setupTimes is where a cold construction's wall time went.
type setupTimes struct {
	total, build, open float64 // seconds
}

// startSUT builds the server over the WAL directory dir and returns once
// GET /v1/healthz answers 200. rec may be nil (no harness spans at all).
func startSUT(network *roadnet.Network, dep *wifi.Deployment, dir string, clock *simClock, rec *recorder) (*sut, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	dia, err := svd.Build(network, dep, svd.Config{GridStep: -1})
	if err != nil {
		return nil, st, fmt.Errorf("svd build: %w", err)
	}
	st.build = time.Since(t0).Seconds()

	s := &sut{dir: dir, dia: dia, clock: clock, reg: obs.NewRegistry(), serveErr: make(chan error, 1)}
	s.store = traveltime.NewStore(traveltime.PaperPlan())
	onOp := server.WALObserver(s.reg)
	if rec != nil {
		onOp = rec.onOp(onOp)
	}
	t1 := time.Now()
	s.pers, err = traveltime.OpenPersister(dir, s.store, traveltime.PersistConfig{OnOp: onOp})
	if err != nil {
		return nil, st, err
	}
	st.open = time.Since(t1).Seconds()

	sink := s.pers.Record
	var gc server.GroupCommit = s.pers
	if rec != nil {
		sink = rec.sink(sink)
		gc = groupCommit{r: rec, next: s.pers}
	}
	s.svc, err = server.NewService(dia, s.store, server.Config{
		Now:          clock.Now,
		Sink:         sink,
		PersistStats: s.pers.Stats,
		Metrics:      s.reg,
		Tracer:       obs.NewTracer(512),
	})
	if err != nil {
		_ = s.pers.Close()
		return nil, st, err
	}
	handler := server.NewHandler(s.svc, server.HandlerConfig{GroupCommit: gc})
	if rec != nil {
		handler = rec.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.pers.Close()
		return nil, st, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { s.serveErr <- s.srv.Serve(ln) }()

	resp, err := http.Get(s.base + api.PathHealth)
	if err != nil {
		s.stop()
		return nil, st, fmt.Errorf("healthz: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, st, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	st.total = time.Since(t0).Seconds()
	// The health check's keep-alive connection would sit open beside the
	// generator's two for the whole run.
	http.DefaultClient.CloseIdleConnections()
	return s, st, nil
}

// stop shuts the listener, the read path and the WAL, in the order the
// server's own exit path uses, and waits for the serve goroutine.
func (s *sut) stop() error {
	if err := s.svc.Close(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	if err := <-s.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	http.DefaultClient.CloseIdleConnections()
	return s.pers.Close()
}

// seedHistory writes "yesterday" into dir: the corpus replayed once, dated
// one day early, through a throw-away service with a persister, snapshotted
// half-way — so a server opened on a copy of dir loads a snapshot, replays a
// WAL tail, and predicts from real historical means.
func seedHistory(c *corpus, dir string) error {
	store := traveltime.NewStore(traveltime.PaperPlan())
	pers, err := traveltime.OpenPersister(dir, store, traveltime.PersistConfig{})
	if err != nil {
		return err
	}
	svc, err := server.NewService(c.world.Dia, store, server.Config{Sink: pers.Record})
	if err != nil {
		_ = pers.Close()
		return err
	}
	defer func() { _ = svc.Close() }()
	for i, ev := range c.world.Events {
		rep := ev.Report
		rep.Scan.Time = rep.Scan.Time.AddDate(0, 0, -1)
		if _, err := svc.Ingest(rep); err != nil {
			_ = pers.Close()
			return fmt.Errorf("history replay: %w", err)
		}
		if i == len(c.world.Events)/2 {
			if err := pers.Snapshot(); err != nil {
				_ = pers.Close()
				return err
			}
		}
	}
	return pers.Close()
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// measureSetup constructs the server cold n times, each on a fresh copy of
// the history directory, and returns every construction's timings.
func measureSetup(c *corpus, histDir, workDir string, n int) ([]setupTimes, error) {
	var out []setupTimes
	for i := 0; i < n; i++ {
		dir := filepath.Join(workDir, fmt.Sprintf("cold-%d", i))
		if err := copyDir(histDir, dir); err != nil {
			return nil, err
		}
		s, st, err := startSUT(c.world.Net, c.world.Dep, dir, &simClock{}, nil)
		if err != nil {
			return nil, err
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}
