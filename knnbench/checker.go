package main

import (
	"fmt"
	"math"
	"math/big"
	"sort"
)

// The answer checker is independent of the index: it keeps the data
// points itself, computes its own distances by linear scan and shares
// no code with the program under test.

// relTol is the relative tolerance between a reported squared distance
// and the checker's own; it absorbs a different summation order only.
const relTol = 1e-12

// distSq is the checker's squared Euclidean distance.
func distSq(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// agree reports whether a and b are finite and agree within relTol.
func agree(a, b float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// kNearest returns the squared distances of the min(k, n) points of
// pts[:n] nearest to q, in ascending order, by linear scan.
func kNearest(pts [][]float64, n int, q []float64, k int) []float64 {
	best := make([]float64, 0, k+1)
	for _, p := range pts[:n] {
		d := distSq(q, p)
		if len(best) == k && d >= best[k-1] {
			continue
		}
		i := sort.SearchFloat64s(best, d)
		best = append(best, 0)
		copy(best[i+1:], best[i:])
		best[i] = d
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// checkAnswer verifies a k-NN answer (ids with their reported squared
// distances) for query q over pts[:n]; want is kNearest(pts, n, q, k).
// It accepts exactly the answers that hold min(k, n) distinct valid ids
// in ascending distance order, report each id's distance correctly, and
// whose distances are the k smallest — so answers that differ only in
// how ties are ordered or broken pass.
func checkAnswer(pts [][]float64, n int, q []float64, want []float64, ids []int64, dists []float64) error {
	if len(ids) != len(want) || len(dists) != len(ids) {
		return fmt.Errorf("got %d ids and %d distances, want %d", len(ids), len(dists), len(want))
	}
	seen := make(map[int64]bool, len(ids))
	own := make([]float64, len(ids))
	for i, id := range ids {
		if id < 0 || id >= int64(n) {
			return fmt.Errorf("result %d: id %d is not a committed object", i, id)
		}
		if seen[id] {
			return fmt.Errorf("result %d: id %d repeated", i, id)
		}
		seen[id] = true
		if i > 0 && dists[i] < dists[i-1] {
			return fmt.Errorf("result %d: distance %g below its predecessor's %g", i, dists[i], dists[i-1])
		}
		own[i] = distSq(q, pts[id])
		if !agree(dists[i], own[i]) {
			return fmt.Errorf("result %d: id %d reported at squared distance %g, checker computes %g", i, id, dists[i], own[i])
		}
	}
	sort.Float64s(own)
	for i := range own {
		if !agree(own[i], want[i]) {
			return fmt.Errorf("rank %d: squared distance %g, the %d nearest have %g", i, own[i], len(want), want[i])
		}
	}
	return nil
}

// exactPrec is wide enough that every squared distance between float64
// coordinates is computed without rounding.
const exactPrec = 4400

// exactDistSq is the squared distance in exact arithmetic, which stays
// finite where float64 overflows.
func exactDistSq(a, b []float64) *big.Float {
	sum := new(big.Float).SetPrec(exactPrec)
	d := new(big.Float).SetPrec(exactPrec)
	for i := range a {
		d.Sub(big.NewFloat(a[i]).SetPrec(exactPrec), big.NewFloat(b[i]))
		sum.Add(sum, d.Mul(d, d))
	}
	return sum
}

// exactTruth is the exact squared distance of every point to one query
// and the k-th smallest of them.
type exactTruth struct {
	dist []*big.Float
	kth  *big.Float
	want int // min(k, points)
}

func newExactTruth(pts [][]float64, q []float64, k int) *exactTruth {
	t := &exactTruth{dist: make([]*big.Float, len(pts)), want: k}
	for i, p := range pts {
		t.dist[i] = exactDistSq(q, p)
	}
	if len(pts) < k {
		t.want = len(pts)
	}
	sorted := append([]*big.Float(nil), t.dist...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Cmp(sorted[j]) < 0 })
	t.kth = sorted[t.want-1]
	return t
}

// check verifies that ids are exactly min(k, points) distinct valid
// objects, none farther from the query than the k-th nearest point,
// with every distance computed exactly. It judges answers to queries
// whose float64 distances overflow.
func (t *exactTruth) check(ids []int64) error {
	if len(ids) != t.want {
		return fmt.Errorf("got %d ids, want %d", len(ids), t.want)
	}
	seen := make(map[int64]bool, len(ids))
	for i, id := range ids {
		if id < 0 || id >= int64(len(t.dist)) || seen[id] {
			return fmt.Errorf("result %d: id %d invalid or repeated", i, id)
		}
		seen[id] = true
		if t.dist[id].Cmp(t.kth) > 0 {
			return fmt.Errorf("result %d: id %d is not among the %d nearest", i, id, t.want)
		}
	}
	return nil
}
