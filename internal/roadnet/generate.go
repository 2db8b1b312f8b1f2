package roadnet

// Synthetic city generators for the scenario corpus. The paper evaluates
// WiLocator on four Metro-Vancouver routes plus a campus road; the generators
// here widen that to whole families of street graphs — ring-and-spoke cores,
// Manhattan grids, river towns — so the golden corpus exercises route
// geometries (sharp turns, long straights, bridges, shared corridors) the
// hand-built networks never produce. Every generator is deterministic in its
// seed, places overlapping routes (the predictor's cross-route correction
// needs shared segments), and ends with stops on every route so timetables
// and arrival predictions work unmodified.

import (
	"fmt"
	"math"

	"wilocator/internal/geo"
	"wilocator/internal/xrand"
)

// CityForm selects a street-graph family.
type CityForm string

// Supported city forms.
const (
	// CityVancouver is the hand-built four-route evaluation network
	// (Table I); the seed is ignored.
	CityVancouver CityForm = "vancouver"
	// CityGrid is a Manhattan grid with an east-west rapid line, a
	// north-south ordinary line, and an L-shaped line overlapping both.
	CityGrid CityForm = "grid"
	// CityRadial is a ring-road-free spoke city: routes run through the
	// centre, two of them sharing a full inbound spoke.
	CityRadial CityForm = "radial"
	// CityRiverine is a river town: two meandering bank roads joined by
	// bridges, with a crossing route that shares both banks.
	CityRiverine CityForm = "riverine"
)

// CitySpec selects and parameterises a generated city. The zero value of each
// form spec selects that form's defaults.
type CitySpec struct {
	Form CityForm
	// Seed drives street jitter, speed variation and meander phase.
	Seed     uint64
	Grid     GridSpec
	Radial   RadialSpec
	Riverine RiverineSpec
}

// BuildCity dispatches to the generator named by spec.Form. Every builder is
// a pure function of its spec and seed — scenario goldens are recorded
// against the segment IDs it assigns — so the wilint determinism analyzer
// guards every function reachable from the builders.
//
//wilint:deterministic BuildCity BuildVancouver BuildGridCity BuildRadialCity BuildRiverineCity BuildCampus
func BuildCity(spec CitySpec) (*Network, error) {
	switch spec.Form {
	case CityVancouver:
		return BuildVancouver(DefaultVancouverSpec())
	case CityGrid:
		return BuildGridCity(spec.Grid, spec.Seed)
	case CityRadial:
		return BuildRadialCity(spec.Radial, spec.Seed)
	case CityRiverine:
		return BuildRiverineCity(spec.Riverine, spec.Seed)
	default:
		return nil, fmt.Errorf("roadnet: unknown city form %q", spec.Form)
	}
}

// stopSpacing is the target distance between generated stops.
const stopSpacing = 330.0

// placeStops puts evenly spaced stops on a route, one per ~stopSpacing
// metres and never fewer than two.
func placeStops(r *Route) error {
	n := int(r.Length()/stopSpacing) + 2
	return r.PlaceStopsEvenly(n)
}

// jitterPoint displaces p by a uniform offset in [-j, j] per axis.
func jitterPoint(p geo.Point, j float64, rng *xrand.Rand) geo.Point {
	if j <= 0 {
		return p
	}
	return geo.Pt(p.X+rng.Range(-j, j), p.Y+rng.Range(-j, j))
}

// GridSpec parameterises a Manhattan-grid city. The zero value selects
// defaults.
type GridSpec struct {
	// Rows and Cols are the intersection counts per side. Defaults 5 and 6.
	Rows, Cols int
	// Block is the nominal block length in metres. Default 280.
	Block float64
	// Speed is the free-flow speed limit in m/s. Default 12.
	Speed float64
	// Jitter is the half-width of the per-intersection position noise in
	// metres. Default 10; negative disables.
	Jitter float64
	// SignalEvery places a traffic light at every k-th intersection
	// (by row+column index). Default 3.
	SignalEvery int
}

func (s GridSpec) withDefaults() GridSpec {
	if s.Rows <= 0 {
		s.Rows = 5
	}
	if s.Cols <= 0 {
		s.Cols = 6
	}
	if s.Block <= 0 {
		s.Block = 280
	}
	if s.Speed <= 0 {
		s.Speed = 12
	}
	if s.Jitter == 0 {
		s.Jitter = 10
	}
	if s.SignalEvery <= 0 {
		s.SignalEvery = 3
	}
	return s
}

// BuildGridCity generates a one-way Manhattan grid (eastbound rows,
// northbound columns) with three routes: a rapid east-west line on the middle
// row, an ordinary north-south line on the middle column, and an L-shaped
// ordinary line that shares part of each.
func BuildGridCity(spec GridSpec, seed uint64) (*Network, error) {
	spec = spec.withDefaults()
	if spec.Rows < 3 || spec.Cols < 3 {
		return nil, fmt.Errorf("roadnet: grid needs at least 3x3 intersections, got %dx%d", spec.Rows, spec.Cols)
	}
	rng := xrand.New(seed).Split("grid-city")
	g := NewGraph()

	nodes := make([][]NodeID, spec.Rows)
	for r := 0; r < spec.Rows; r++ {
		nodes[r] = make([]NodeID, spec.Cols)
		for c := 0; c < spec.Cols; c++ {
			p := jitterPoint(geo.Pt(float64(c)*spec.Block, float64(r)*spec.Block), spec.Jitter, rng)
			nodes[r][c] = g.AddNode(p, fmt.Sprintf("x%d-%d", r, c))
		}
	}

	signalled := func(r, c int) bool { return (r+c)%spec.SignalEvery == 0 }

	// east[r][c] runs nodes[r][c] -> nodes[r][c+1]; north[c][r] runs
	// nodes[r][c] -> nodes[r+1][c].
	east := make([][]SegmentID, spec.Rows)
	for r := 0; r < spec.Rows; r++ {
		speed := spec.Speed * rng.Range(0.9, 1.1)
		east[r] = make([]SegmentID, spec.Cols-1)
		for c := 0; c < spec.Cols-1; c++ {
			id, err := g.AddSegment(nodes[r][c], nodes[r][c+1],
				fmt.Sprintf("row-%d-%d", r, c), speed, signalled(r, c+1))
			if err != nil {
				return nil, err
			}
			east[r][c] = id
		}
	}
	north := make([][]SegmentID, spec.Cols)
	for c := 0; c < spec.Cols; c++ {
		speed := spec.Speed * rng.Range(0.85, 1.05)
		north[c] = make([]SegmentID, spec.Rows-1)
		for r := 0; r < spec.Rows-1; r++ {
			id, err := g.AddSegment(nodes[r][c], nodes[r+1][c],
				fmt.Sprintf("col-%d-%d", c, r), speed, signalled(r+1, c))
			if err != nil {
				return nil, err
			}
			north[c][r] = id
		}
	}

	net := NewNetwork(g)
	rm, cm := spec.Rows/2, spec.Cols/2

	ew, err := NewRoute(g, "grid-ew", "Grid East-West Rapid", ClassRapid, east[rm])
	if err != nil {
		return nil, err
	}
	ns, err := NewRoute(g, "grid-ns", "Grid North-South", ClassOrdinary, north[cm])
	if err != nil {
		return nil, err
	}
	var lsegs []SegmentID
	lsegs = append(lsegs, north[0][:rm]...)    // up column 0 to the middle row
	lsegs = append(lsegs, east[rm][:cm]...)    // east along the middle row (shared with grid-ew)
	lsegs = append(lsegs, north[cm][rm:]...)   // up the middle column (shared with grid-ns)
	l, err := NewRoute(g, "grid-l", "Grid L Line", ClassOrdinary, lsegs)
	if err != nil {
		return nil, err
	}
	for _, r := range []*Route{ew, ns, l} {
		if err := placeStops(r); err != nil {
			return nil, err
		}
		if err := net.AddRoute(r); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// RadialSpec parameterises a spoke city. The zero value selects defaults.
type RadialSpec struct {
	// Spokes is the number of arterials meeting at the centre. Default 6;
	// minimum 4.
	Spokes int
	// Rings is the number of intersections per spoke (excluding the
	// centre). Default 5.
	Rings int
	// Block is the nominal spacing between ring intersections in metres.
	// Default 260.
	Block float64
	// Speed is the free-flow speed limit in m/s. Default 11.
	Speed float64
	// AngleJitter is the half-width of the per-spoke bearing noise in
	// radians. Default 0.05; negative disables.
	AngleJitter float64
}

func (s RadialSpec) withDefaults() RadialSpec {
	if s.Spokes <= 0 {
		s.Spokes = 6
	}
	if s.Rings <= 0 {
		s.Rings = 5
	}
	if s.Block <= 0 {
		s.Block = 260
	}
	if s.Speed <= 0 {
		s.Speed = 11
	}
	if s.AngleJitter == 0 {
		s.AngleJitter = 0.05
	}
	return s
}

// BuildRadialCity generates spokes meeting at a signalled centre, with both
// travel directions on every spoke, and three diameter routes through the
// centre. Two of the routes share a full inbound spoke — the strongest
// overlap geometry in the corpus.
func BuildRadialCity(spec RadialSpec, seed uint64) (*Network, error) {
	spec = spec.withDefaults()
	if spec.Spokes < 4 {
		return nil, fmt.Errorf("roadnet: radial city needs at least 4 spokes, got %d", spec.Spokes)
	}
	rng := xrand.New(seed).Split("radial-city")
	g := NewGraph()
	center := g.AddNode(geo.Pt(0, 0), "centre")

	inbound := make([][]SegmentID, spec.Spokes)  // outermost -> centre
	outbound := make([][]SegmentID, spec.Spokes) // centre -> outermost
	for k := 0; k < spec.Spokes; k++ {
		theta := 2*math.Pi*float64(k)/float64(spec.Spokes) + jitterAngle(spec.AngleJitter, rng)
		speed := spec.Speed * rng.Range(0.9, 1.1)
		nodes := []NodeID{center}
		for j := 1; j <= spec.Rings; j++ {
			radius := float64(j) * spec.Block * rng.Range(0.95, 1.05)
			p := geo.Pt(radius*math.Cos(theta), radius*math.Sin(theta))
			nodes = append(nodes, g.AddNode(p, fmt.Sprintf("spoke-%d-%d", k, j)))
		}
		for j := spec.Rings; j >= 1; j-- {
			// Signal at the centre approach and every other ring.
			sig := j == 1 || j%2 == 0
			id, err := g.AddSegment(nodes[j], nodes[j-1],
				fmt.Sprintf("in-%d-%d", k, j), speed, sig)
			if err != nil {
				return nil, err
			}
			inbound[k] = append(inbound[k], id)
		}
		for j := 0; j < spec.Rings; j++ {
			id, err := g.AddSegment(nodes[j], nodes[j+1],
				fmt.Sprintf("out-%d-%d", k, j), speed, j%2 == 1)
			if err != nil {
				return nil, err
			}
			outbound[k] = append(outbound[k], id)
		}
	}

	diameter := func(in, out int) []SegmentID {
		var segs []SegmentID
		segs = append(segs, inbound[in]...)
		segs = append(segs, outbound[out]...)
		return segs
	}
	net := NewNetwork(g)
	half := spec.Spokes / 2
	routes := []struct {
		id, name string
		class    RouteClass
		segs     []SegmentID
	}{
		{"rad-a", "Radial A Rapid", ClassRapid, diameter(0, half)},
		{"rad-b", "Radial B", ClassOrdinary, diameter(1, half+1)},
		// rad-c shares the entire inbound spoke 0 with rad-a.
		{"rad-c", "Radial C", ClassOrdinary, diameter(0, spec.Spokes-1)},
	}
	for _, rs := range routes {
		r, err := NewRoute(g, rs.id, rs.name, rs.class, rs.segs)
		if err != nil {
			return nil, err
		}
		if err := placeStops(r); err != nil {
			return nil, err
		}
		if err := net.AddRoute(r); err != nil {
			return nil, err
		}
	}
	return net, nil
}

func jitterAngle(j float64, rng *xrand.Rand) float64 {
	if j <= 0 {
		return 0
	}
	return rng.Range(-j, j)
}

// RiverineSpec parameterises a river town. The zero value selects defaults.
type RiverineSpec struct {
	// Nodes is the number of intersections per bank. Default 13.
	Nodes int
	// Block is the nominal along-bank spacing in metres. Default 300.
	Block float64
	// Gap is the distance between the two bank roads in metres. Default 220.
	Gap float64
	// Bridges is the number of river crossings. Default 3.
	Bridges int
	// Amp and Wavelength shape the banks' shared meander in metres.
	// Defaults 80 and 1500.
	Amp, Wavelength float64
	// Speed is the free-flow speed limit in m/s. Default 12.5.
	Speed float64
}

func (s RiverineSpec) withDefaults() RiverineSpec {
	if s.Nodes <= 0 {
		s.Nodes = 13
	}
	if s.Block <= 0 {
		s.Block = 300
	}
	if s.Gap <= 0 {
		s.Gap = 220
	}
	if s.Bridges <= 0 {
		s.Bridges = 3
	}
	if s.Amp <= 0 {
		s.Amp = 80
	}
	if s.Wavelength <= 0 {
		s.Wavelength = 1500
	}
	if s.Speed <= 0 {
		s.Speed = 12.5
	}
	return s
}

// BuildRiverineCity generates two eastbound bank roads following a shared
// sine meander (seeded phase), northbound bridges between them, and three
// routes: one per bank plus a crossing route that runs the south bank, takes
// the first bridge, and finishes on the north bank — overlapping both bank
// routes.
func BuildRiverineCity(spec RiverineSpec, seed uint64) (*Network, error) {
	spec = spec.withDefaults()
	if spec.Nodes < 4 {
		return nil, fmt.Errorf("roadnet: riverine city needs at least 4 nodes per bank, got %d", spec.Nodes)
	}
	if spec.Bridges > spec.Nodes-2 {
		return nil, fmt.Errorf("roadnet: %d bridges do not fit %d bank nodes", spec.Bridges, spec.Nodes)
	}
	rng := xrand.New(seed).Split("riverine-city")
	phase := rng.Range(0, 2*math.Pi)
	g := NewGraph()

	bankY := func(x, half float64) float64 {
		return half + spec.Amp*math.Sin(2*math.Pi*x/spec.Wavelength+phase)
	}
	northN := make([]NodeID, spec.Nodes)
	southN := make([]NodeID, spec.Nodes)
	for i := 0; i < spec.Nodes; i++ {
		x := float64(i) * spec.Block
		northN[i] = g.AddNode(geo.Pt(x, bankY(x, spec.Gap/2)), fmt.Sprintf("north-%d", i))
		southN[i] = g.AddNode(geo.Pt(x, bankY(x, -spec.Gap/2)), fmt.Sprintf("south-%d", i))
	}

	bridgeAt := make(map[int]bool)
	for j := 0; j < spec.Bridges; j++ {
		bridgeAt[(j+1)*spec.Nodes/(spec.Bridges+1)] = true
	}

	nSegs := make([]SegmentID, spec.Nodes-1)
	sSegs := make([]SegmentID, spec.Nodes-1)
	nSpeed := spec.Speed * rng.Range(0.95, 1.1)
	sSpeed := spec.Speed * rng.Range(0.85, 1.0)
	for i := 0; i < spec.Nodes-1; i++ {
		// Lights at bridge landings and every 4th riverside block.
		sig := bridgeAt[i+1] || (i+1)%4 == 0
		id, err := g.AddSegment(northN[i], northN[i+1], fmt.Sprintf("nbank-%d", i), nSpeed, sig)
		if err != nil {
			return nil, err
		}
		nSegs[i] = id
		id, err = g.AddSegment(southN[i], southN[i+1], fmt.Sprintf("sbank-%d", i), sSpeed, sig)
		if err != nil {
			return nil, err
		}
		sSegs[i] = id
	}
	// Bridges are added in ascending node order: segment IDs are assigned in
	// insertion order, so ranging over the bridgeAt map here would make the
	// IDs — and everything compiled from the network — differ run to run.
	// The crossing route takes the first (westmost) bridge.
	firstBridge := -1
	var firstBridgeSeg SegmentID
	for i := 0; i < spec.Nodes; i++ {
		if !bridgeAt[i] {
			continue
		}
		id, err := g.AddSegment(southN[i], northN[i], fmt.Sprintf("bridge-%d", i), spec.Speed*0.8, true)
		if err != nil {
			return nil, err
		}
		if firstBridge < 0 {
			firstBridge, firstBridgeSeg = i, id
		}
	}

	var crossSegs []SegmentID
	crossSegs = append(crossSegs, sSegs[:firstBridge]...)
	crossSegs = append(crossSegs, firstBridgeSeg)
	crossSegs = append(crossSegs, nSegs[firstBridge:]...)

	net := NewNetwork(g)
	routes := []struct {
		id, name string
		class    RouteClass
		segs     []SegmentID
	}{
		{"riv-north", "North Bank Rapid", ClassRapid, nSegs},
		{"riv-south", "South Bank", ClassOrdinary, sSegs},
		{"riv-cross", "River Crossing", ClassOrdinary, crossSegs},
	}
	for _, rs := range routes {
		r, err := NewRoute(g, rs.id, rs.name, rs.class, rs.segs)
		if err != nil {
			return nil, err
		}
		if err := placeStops(r); err != nil {
			return nil, err
		}
		if err := net.AddRoute(r); err != nil {
			return nil, err
		}
	}
	return net, nil
}
