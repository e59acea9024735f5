package main

import (
	"sort"
	"testing"
)

// exactAnswer is the answer a correct index gives: the k nearest ids
// with their distances, ties broken by id.
func exactAnswer(pts [][]float64, q []float64, k int) ([]int64, []float64) {
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := distSq(q, pts[ids[i]]), distSq(q, pts[ids[j]])
		if di < dj || di > dj {
			return di < dj
		}
		return ids[i] < ids[j]
	})
	if len(ids) > k {
		ids = ids[:k]
	}
	dists := make([]float64, len(ids))
	for i, id := range ids {
		dists[i] = distSq(q, pts[id])
	}
	return ids, dists
}

func TestCheckerAcceptsExactAnswer(t *testing.T) {
	pts := gaussian(500, 3, 7)
	q := []float64{0.5, 0.4, 0.6}
	for _, k := range []int{1, 10, 500, 600} {
		ids, dists := exactAnswer(pts, q, k)
		if err := checkAnswer(pts, len(pts), q, kNearest(pts, len(pts), q, k), ids, dists); err != nil {
			t.Errorf("k=%d: exact answer rejected: %v", k, err)
		}
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	pts := gaussian(500, 3, 7)
	q := []float64{0.5, 0.4, 0.6}
	const k = 10
	want := kNearest(pts, len(pts), q, k)
	ids, dists := exactAnswer(pts, q, k+1)
	if !(dists[k] > dists[k-1]) {
		t.Fatal("test data has a tie at rank k; pick another seed")
	}
	cases := map[string]func() ([]int64, []float64){
		"swapped-in (k+1)-th neighbour": func() ([]int64, []float64) {
			i, d := append([]int64(nil), ids[:k]...), append([]float64(nil), dists[:k]...)
			i[k-1], d[k-1] = ids[k], dists[k]
			return i, d
		},
		"missing neighbour": func() ([]int64, []float64) {
			return ids[:k-1], dists[:k-1]
		},
		"wrong distance": func() ([]int64, []float64) {
			d := append([]float64(nil), dists[:k]...)
			d[3] *= 1 + 1e-9
			return ids[:k], d
		},
		"repeated id": func() ([]int64, []float64) {
			i := append([]int64(nil), ids[:k]...)
			i[5] = i[4]
			return i, dists[:k]
		},
		"unknown id": func() ([]int64, []float64) {
			i := append([]int64(nil), ids[:k]...)
			i[0] = int64(len(pts))
			return i, dists[:k]
		},
		"descending order": func() ([]int64, []float64) {
			i, d := append([]int64(nil), ids[:k]...), append([]float64(nil), dists[:k]...)
			i[0], i[1], d[0], d[1] = i[1], i[0], d[1], d[0]
			return i, d
		},
	}
	for name, mk := range cases {
		gotIDs, gotDists := mk()
		if err := checkAnswer(pts, len(pts), q, want, gotIDs, gotDists); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckerAcceptsPermutedTie(t *testing.T) {
	// Four points at the same distance from q straddle rank k=3: any
	// two of them complete the answer, in either order.
	pts := [][]float64{{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}, {5, 5}}
	q := []float64{0, 0}
	want := kNearest(pts, len(pts), q, 3)
	for _, ids := range [][]int64{{0, 1, 2}, {0, 2, 1}, {0, 4, 3}, {0, 3, 1}} {
		dists := make([]float64, len(ids))
		for i, id := range ids {
			dists[i] = distSq(q, pts[id])
		}
		if err := checkAnswer(pts, len(pts), q, want, ids, dists); err != nil {
			t.Errorf("ids %v: tie permutation rejected: %v", ids, err)
		}
	}
}

func TestCheckerOnlyCountsCommittedPoints(t *testing.T) {
	pts := [][]float64{{0, 0}, {3, 0}, {1, 0}}
	q := []float64{0, 0}
	// Only the first two points are committed, so id 2 is not a valid
	// answer even though it is nearer than id 1.
	if err := checkAnswer(pts, 2, q, kNearest(pts, 2, q, 2), []int64{0, 2}, []float64{0, 1}); err == nil {
		t.Error("uncommitted id accepted")
	}
	if err := checkAnswer(pts, 2, q, kNearest(pts, 2, q, 2), []int64{0, 1}, []float64{0, 9}); err != nil {
		t.Errorf("committed answer rejected: %v", err)
	}
}

func TestCheckExactFarQuery(t *testing.T) {
	pts := californiaLike(300, 3)
	q := farQueries[0] // (1e308, -1e308): nearest is the largest x - y
	const k = 5
	for _, p := range pts {
		if d := distSq(q, p); d < 1e308 {
			t.Fatalf("float64 distance %g did not overflow", d)
		}
	}
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		return exactDistSq(q, pts[ids[i]]).Cmp(exactDistSq(q, pts[ids[j]])) < 0
	})
	if err := newExactTruth(pts, q, k).check(ids[:k]); err != nil {
		t.Errorf("exact nearest rejected: %v", err)
	}
	first := []int64{0, 1, 2, 3, 4} // what an overflowing index returns
	if err := newExactTruth(pts, q, k).check(first); err == nil {
		t.Error("first-inserted objects accepted as the nearest")
	}
	if err := newExactTruth(pts, q, k).check(ids[:k-1]); err == nil {
		t.Error("short answer accepted")
	}
}
