package svd

import (
	"math"

	"wilocator/internal/geo"
	"wilocator/internal/rf"
	"wilocator/internal/wifi"
)

// Metric selects how the diagram ranks APs at a point.
type Metric int

// Supported metrics.
const (
	// MetricRSS ranks by descending expected RSS — the Signal Voronoi
	// Diagram of the paper.
	MetricRSS Metric = iota + 1
	// MetricEuclidean ranks by ascending Euclidean distance to the AP
	// geo-tag — the conventional Voronoi diagram, which the paper notes is
	// the special case of the SVD with homogeneous AP parameters. Used for
	// the ablation.
	MetricEuclidean
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case MetricRSS:
		return "rss"
	case MetricEuclidean:
		return "euclidean"
	default:
		return "unknown"
	}
}

// apGrid is a uniform spatial hash over active APs supporting "all APs
// within detection range of p" queries in O(1) buckets.
type apGrid struct {
	cell    float64
	model   rf.LogDistance
	metric  Metric
	maxRng  float64
	buckets map[[2]int][]*wifi.AP
}

func newAPGrid(aps []*wifi.AP, model rf.LogDistance, metric Metric) *apGrid {
	maxRng := 0.0
	for _, ap := range aps {
		if r := model.Range(ap.RefRSS, ap.PathLossExp); r > maxRng {
			maxRng = r
		}
	}
	if maxRng <= 0 {
		maxRng = 1
	}
	g := &apGrid{
		cell:    maxRng,
		model:   model,
		metric:  metric,
		maxRng:  maxRng,
		buckets: make(map[[2]int][]*wifi.AP),
	}
	for _, ap := range aps {
		k := g.bucket(ap.Pos)
		g.buckets[k] = append(g.buckets[k], ap)
	}
	return g
}

func (g *apGrid) bucket(p geo.Point) [2]int {
	return [2]int{int(math.Floor(p.X / g.cell)), int(math.Floor(p.Y / g.cell))}
}

// rankScratch is the reusable buffer set behind orderInto. Build gives each
// worker its own, so ranking a point allocates nothing once the buffers have
// grown to the local AP density.
type rankScratch struct {
	ids []wifi.BSSID
	// score is the ranking key, NOT an RSS: under MetricSignal it is a dBm
	// value, under MetricEuclidean a negated distance in meters. The neutral
	// name keeps the units analyzer honest — don't rename it back to rss.
	score []float64
	// cands is the 3×3 bucket neighbourhood of candsAt in candsGrid,
	// gathered in orderInto's scan order. Consecutive along-road samples
	// mostly fall in one bucket, so the nine map lookups are paid once per
	// bucket change, not once per point.
	cands     []*wifi.AP
	candsAt   [2]int
	candsGrid *apGrid
}

// candidates returns every AP in the 3×3 bucket neighbourhood of b, in the
// fixed (dx, dy) scan order, cached in sc while b stays the same.
func (g *apGrid) candidates(b [2]int, sc *rankScratch) []*wifi.AP {
	if sc.candsGrid == g && sc.candsAt == b {
		return sc.cands
	}
	sc.cands = sc.cands[:0]
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			sc.cands = append(sc.cands, g.buckets[[2]int{b[0] + dx, b[1] + dy}]...)
		}
	}
	sc.candsGrid, sc.candsAt = g, b
	return sc.cands
}

// orderInto returns the BSSIDs of up to kmax APs detectable at p, ordered by
// the metric (strongest/nearest first, metric ties broken by ascending BSSID
// — the same total order a full sort produces). kmax <= 0 returns every
// detectable AP. The result aliases sc.ids and is only valid until the next
// call with the same scratch. Candidates are insertion-ranked in place into
// the bounded top-kmax, which beats sorting the whole candidate set for the
// small k diagram construction needs (k == Config.Order, typically 2).
func (g *apGrid) orderInto(p geo.Point, kmax int, sc *rankScratch) []wifi.BSSID {
	bound := kmax
	if bound <= 0 {
		bound = int(^uint(0) >> 1)
	}
	n := 0 // ranked candidates currently held in sc.ids[:n] / sc.score[:n]
	for _, ap := range g.candidates(g.bucket(p), sc) {
		d := p.Dist(ap.Pos)
		rss := g.model.ExpectedRSS(ap.RefRSS, ap.PathLossExp, d)
		if rss < g.model.Floor() {
			continue
		}
		v := rss
		if g.metric == MetricEuclidean {
			v = -d
		}
		// Walk left past every kept candidate this one outranks.
		i := n
		for i > 0 && (v > sc.score[i-1] || (v == sc.score[i-1] && ap.BSSID < sc.ids[i-1])) {
			i--
		}
		if i >= bound {
			continue
		}
		if n < bound {
			if n == len(sc.ids) {
				sc.ids = append(sc.ids, "")
				sc.score = append(sc.score, 0)
			}
			copy(sc.ids[i+1:n+1], sc.ids[i:n])
			copy(sc.score[i+1:n+1], sc.score[i:n])
			n++
		} else {
			// Full: the current worst falls off the end.
			copy(sc.ids[i+1:n], sc.ids[i:n-1])
			copy(sc.score[i+1:n], sc.score[i:n-1])
		}
		sc.ids[i] = ap.BSSID
		sc.score[i] = v
	}
	return sc.ids[:n]
}

// orderAt is orderInto with a one-shot scratch, for query-time callers that
// keep the result.
func (g *apGrid) orderAt(p geo.Point, kmax int) []wifi.BSSID {
	var sc rankScratch
	return g.orderInto(p, kmax, &sc)
}
