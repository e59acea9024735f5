package main

import (
	"math"
	"math/rand"
)

// The generators below are the benchmark's own: the program under test
// only ever receives the points they produce, so no change to the
// program can change the inputs of a run with a given seed.
//
// Like the paper's data sets, which are fixed files, the data points are
// the same in every run: they are drawn from dataSeed. The run's seed
// draws the queries. An incrementally built R*-tree's shape, and with it
// the cost of loading it, moves a lot with the sample it is built from
// (the load rate of ingest-mixed-2d spread by 64% over five data seeds),
// which would drown every change the benchmark is meant to show.
const dataSeed = 1998

// californiaLike draws n 2-d points in the unit square shaped like a
// population map: 160 clusters of Zipf-distributed weight along a
// diagonal coastal band, plus 6% isolated points spread uniformly.
func californiaLike(n int, seed int64) [][]float64 {
	rnd := rand.New(rand.NewSource(seed))
	type cluster struct{ x, y, sd, cum float64 }
	cls := make([]cluster, 160)
	total := 0.0
	for i := range cls {
		t := rnd.Float64()
		inland := math.Abs(rnd.NormFloat64()) * 0.2
		total += 1 / math.Pow(float64(i+1), 1.1)
		cls[i] = cluster{
			x:   unit(t + 0.03*rnd.NormFloat64()),
			y:   unit(1 - t - inland),
			sd:  0.004 + 0.03*rnd.Float64(),
			cum: total,
		}
	}
	pts := make([][]float64, n)
	uniform := n * 6 / 100
	for i := range pts {
		if i < uniform {
			pts[i] = []float64{rnd.Float64(), rnd.Float64()}
			continue
		}
		r := rnd.Float64() * total
		c := cls[len(cls)-1]
		for _, cand := range cls {
			if r <= cand.cum {
				c = cand
				break
			}
		}
		pts[i] = []float64{unit(c.x + c.sd*rnd.NormFloat64()), unit(c.y + c.sd*rnd.NormFloat64())}
	}
	return pts
}

// gaussian draws n dim-dimensional points, each coordinate normal with
// mean 0.5 and standard deviation 0.15.
func gaussian(n, dim int, seed int64) [][]float64 {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for a := range p {
			p[a] = 0.5 + 0.15*rnd.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// longBeachLike draws n 2-d points shaped like road intersections: a
// 4x4 grid of districts, each with its own block pitch and share of
// empty blocks, jittered, plus four diagonal arterials.
func longBeachLike(n int, seed int64) [][]float64 {
	rnd := rand.New(rand.NewSource(seed))
	const districts = 4
	pitch := make([]float64, districts*districts)
	empty := make([]float64, districts*districts)
	for i := range pitch {
		pitch[i] = 0.004 + 0.01*rnd.Float64()
		empty[i] = 0.4 * rnd.Float64()
	}
	type road struct{ x0, y0, dx, dy float64 }
	roads := make([]road, 4)
	for i := range roads {
		a := rnd.Float64() * math.Pi
		roads[i] = road{rnd.Float64(), rnd.Float64(), math.Cos(a), math.Sin(a)}
	}
	pts := make([][]float64, 0, n)
	for len(pts) < n {
		if rnd.Float64() < 0.12 {
			r := roads[rnd.Intn(len(roads))]
			s := 2*rnd.Float64() - 1
			pts = append(pts, []float64{
				unit(r.x0 + s*r.dx + 0.0005*rnd.NormFloat64()),
				unit(r.y0 + s*r.dy + 0.0005*rnd.NormFloat64()),
			})
			continue
		}
		x, y := rnd.Float64(), rnd.Float64()
		d := int(x*districts) + districts*int(y*districts)
		if rnd.Float64() < empty[d] {
			continue
		}
		p := pitch[d]
		pts = append(pts, []float64{
			unit(math.Round(x/p)*p + 0.0003*rnd.NormFloat64()),
			unit(math.Round(y/p)*p + 0.0003*rnd.NormFloat64()),
		})
	}
	return pts
}

// unit clamps v into [0, 1].
func unit(v float64) float64 { return math.Min(1, math.Max(0, v)) }

// sampleQueries draws count query points from the first n data points,
// each moved by a small normal perturbation so that it is not exactly
// a stored object.
func sampleQueries(pts [][]float64, n, count int, jitter float64, seed int64) [][]float64 {
	rnd := rand.New(rand.NewSource(seed))
	qs := make([][]float64, count)
	for i := range qs {
		src := pts[rnd.Intn(n)]
		q := make([]float64, len(src))
		for a := range q {
			q[a] = src[a] + jitter*rnd.NormFloat64()
		}
		qs[i] = q
	}
	return qs
}

// farQueries is the fixed handful of legal but far-out 2-d query
// points sent by serve-hot-2d. Their squared distances to any data
// point overflow float64, so they probe how the service treats inputs
// whose exact answer it cannot compute in floating point. They do not
// depend on the seed.
var farQueries = [][]float64{
	{1e308, -1e308},
	{-1e308, 1e308},
	{1e200, 1e200},
	{-3e250, 7e249},
}
