package core

import (
	"math/rand"
	"slices"
	"testing"
)

// insertionRank and insertionPareto are the original insertion-sort
// orderings, kept as the reference the sort-based ones must reproduce.
func insertionRank(points []CampaignPoint) []int {
	out := gridOrder(len(points))
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && points[out[j]].MeanRatio > points[out[j-1]].MeanRatio; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func insertionPareto(points []CampaignPoint) []int {
	order := gridOrder(len(points))
	less := func(a, b int) bool {
		pa, pb := points[a], points[b]
		if pa.Cores != pb.Cores {
			return pa.Cores < pb.Cores
		}
		if pa.TotalSeconds != pb.TotalSeconds {
			return pa.TotalSeconds < pb.TotalSeconds
		}
		return a < b
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var front []int
	best := 0.0
	for k, i := range order {
		if k == 0 || points[i].TotalSeconds < best {
			front = append(front, i)
			best = points[i].TotalSeconds
		}
	}
	return front
}

// Random grids drawn from a few values per key, so ties in MeanRatio,
// Cores and TotalSeconds are common.
func TestRankingMatchesInsertionSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		points := make([]CampaignPoint, r.Intn(200))
		distinct := 1 + r.Intn(8)
		for i := range points {
			points[i] = CampaignPoint{Index: i,
				Cores:        4 << r.Intn(3),
				TotalSeconds: float64(1 + r.Intn(distinct)),
				MeanRatio:    float64(r.Intn(distinct)) / 4}
		}
		if got, want := rankByMeanRatio(points), insertionRank(points); !slices.Equal(got, want) {
			t.Fatalf("trial %d: rankByMeanRatio = %v, insertion sort %v", trial, got, want)
		}
		if got, want := paretoFront(points), insertionPareto(points); !slices.Equal(got, want) {
			t.Fatalf("trial %d: paretoFront = %v, insertion sort %v", trial, got, want)
		}
	}
}
