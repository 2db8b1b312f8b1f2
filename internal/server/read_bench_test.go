package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/mobility"
	"wilocator/internal/predict"
	"wilocator/internal/roadnet"
	"wilocator/internal/sensing"
	"wilocator/internal/svd"
	"wilocator/internal/traveltime"
	"wilocator/internal/wifi"
	"wilocator/internal/xrand"
)

// The read benchmarks measure one rider GET through the handler (snapshot
// path: pointer load + pre-rendered bytes) against the pre-snapshot cold
// recompute of the same product including its JSON render. The ratio is the
// read-path speedup `make bench-check` gates at 10x via BENCH_read.json.
//
// The clock is frozen, so the published snapshot never expires mid-run and
// the GET benchmarks time the steady-state hit path — exactly what a fleet
// of rider apps polling between publishes costs.

// newReadBenchWorld builds a world with a live mid-trip fleet large enough
// that the recompute path does real per-bus work.
func newReadBenchWorld(b *testing.B, seed uint64) *world {
	b.Helper()
	w := newWorld(b, seed)
	for i := 0; i < 24; i++ {
		w.runBusHalf(b, fmt.Sprintf("bench-bus-%02d", i), t0.Add(time.Duration(i)*15*time.Second), 2, seed+uint64(i)*10)
	}
	if live := w.svc.RecomputeVehicles(""); len(live) < 16 {
		b.Fatalf("only %d live buses in the bench world", len(live))
	}
	return w
}

func benchmarkGET(b *testing.B, w *world, target string) {
	b.Helper()
	h := Handler(w.svc)
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rw := &discardRW{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw.code = 0
		h.ServeHTTP(rw, req)
		if rw.code != http.StatusOK {
			b.Fatalf("GET %s: status %d", target, rw.code)
		}
	}
}

func BenchmarkVehiclesGET(b *testing.B) {
	w := newReadBenchWorld(b, 80)
	benchmarkGET(b, w, api.PathVehicles+"?route="+w.route.ID())
}

// BenchmarkVehiclesRecompute is the pre-snapshot cost of the same response:
// walk the bus table under per-bus locks, derive the list, render it.
func BenchmarkVehiclesRecompute(b *testing.B) {
	w := newReadBenchWorld(b, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs := w.svc.RecomputeVehicles(w.route.ID())
		if len(vs) == 0 {
			b.Fatal("no vehicles")
		}
		_ = renderVehicles(vs)
	}
}

func BenchmarkArrivalsGET(b *testing.B) {
	w := newReadBenchWorld(b, 81)
	benchmarkGET(b, w, api.PathArrivals+"?route="+w.route.ID()+"&stop=1")
}

// BenchmarkArrivalsRecompute runs the per-request prediction loop the old
// path paid on every arrivals GET, plus the render.
func BenchmarkArrivalsRecompute(b *testing.B) {
	w := newReadBenchWorld(b, 81)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ests, err := w.svc.RecomputeArrivals(w.route.ID(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if ests == nil {
			_ = nullBody
			continue
		}
		_ = marshalBody(ests)
	}
}

// newFleetService builds the scenario corpus's Vancouver city (four routes,
// 19–91 stops, APs every 150 m as scenario.Compile deploys them) and replays
// n buses into it, round-robin over the routes and staggered so that at the
// frozen clock every bus is live and mid-route, spread between a tenth and
// nine tenths of the way along.
func newFleetService(b *testing.B, n int) *Service {
	b.Helper()
	net, err := roadnet.BuildCity(roadnet.CitySpec{Form: roadnet.CityVancouver})
	if err != nil {
		b.Fatal(err)
	}
	dspec := wifi.DefaultDeploySpec()
	dspec.Spacing = 150
	dep, err := wifi.Deploy(net, dspec, xrand.New(90))
	if err != nil {
		b.Fatal(err)
	}
	dia, err := svd.Build(net, dep, svd.Config{GridStep: -1})
	if err != nil {
		b.Fatal(err)
	}
	now := t0.Add(2 * time.Hour)
	svc, err := NewService(dia, traveltime.NewStore(traveltime.PaperPlan()), Config{Now: func() time.Time { return now }})
	if err != nil {
		b.Fatal(err)
	}

	type bus struct {
		id, routeID string
		route       *roadnet.Route
		trip        *mobility.Trip
		phones      []*sensing.Phone
	}
	routes := net.Routes()
	field := mobility.DefaultCongestion(1)
	fleet := make([]bus, n)
	first := now
	for i := range fleet {
		route := routes[i%len(routes)]
		rng := xrand.New(9000 + uint64(i))
		// Drive once from a nominal start to learn the trip's duration, then
		// place its start so the bus is frac of the way through at now.
		probe, err := mobility.Drive(net, route.ID(), t0, mobility.DriveConfig{}, field, nil, rng.Split("trip"))
		if err != nil {
			b.Fatal(err)
		}
		frac := 0.1 + 0.8*float64(i/len(routes)+1)/float64(n/len(routes)+2)
		start := now.Add(-time.Duration(frac * float64(probe.Duration()))).Truncate(sensing.DefaultScanPeriod)
		trip, err := mobility.Drive(net, route.ID(), start, mobility.DriveConfig{}, field, nil, rng.Split("trip"))
		if err != nil {
			b.Fatal(err)
		}
		id := fmt.Sprintf("fleet-%03d", i)
		phones, err := sensing.NewRiderPhones(id, 2, dep, sensing.PhoneConfig{ReportLoss: -1}, rng.Split("phones"))
		if err != nil {
			b.Fatal(err)
		}
		fleet[i] = bus{id: id, routeID: route.ID(), route: route, trip: trip, phones: phones}
		if start.Before(first) {
			first = start
		}
	}
	// Time-major replay, so the travel-time store fills in the order a live
	// fleet would fill it.
	for at := first; !at.After(now); at = at.Add(sensing.DefaultScanPeriod) {
		for _, bu := range fleet {
			if at.Before(bu.trip.Start()) {
				continue
			}
			pos := bu.route.PointAt(bu.trip.ArcAt(at))
			for _, p := range bu.phones {
				if scan, ok := p.ScanAt(pos, at); ok {
					if _, err := svc.Ingest(api.Report{BusID: bu.id, RouteID: bu.routeID, PhoneID: p.ID(), Scan: scan}); err != nil {
						b.Fatalf("Ingest: %v", err)
					}
				}
			}
		}
	}
	if live := len(svc.Vehicles("")); live < n*9/10 {
		b.Fatalf("%d of %d fleet buses live at the bench clock", live, n)
	}
	return svc
}

// BenchmarkPublish times one whole epoch publish — capture, arrival sweeps,
// traffic map, anomaly scan, JSON renders — over live-fleet sizes on the
// scenario city, and reports how many per-segment predictions one publish
// makes. That count is the cost model's leading term, live buses × segments
// ahead; with the per-(bus, stop) loop it was live buses × stops ahead ×
// segments between.
func BenchmarkPublish(b *testing.B) {
	for _, n := range []int{10, 40, 120} {
		b.Run(fmt.Sprintf("buses=%d", n), func(b *testing.B) {
			svc := newFleetService(b, n)
			defer svc.Close()
			pm := &predict.Metrics{}
			svc.pred.SetMetrics(pm)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc.InvalidateReadSnapshot()
				svc.PublishSnapshot()
			}
			b.StopTimer()
			calls := pm.HistoricalMean.Load() + pm.SegmentMeanFallback.Load() + pm.FreeFlowFallback.Load()
			b.ReportMetric(float64(calls)/float64(b.N), "segtimes/op")
		})
	}
}
