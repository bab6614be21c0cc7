package peerwindow

import (
	"fmt"
	"testing"

	"peerwindow/internal/query"
	"peerwindow/internal/xrand"
)

// refSampleIndexes is the specification for query.SampleIndexes: a full
// forward Fisher–Yates over a real index array, stopping after k draws.
// The production code tracks only the displaced positions in a map and
// must consume the identical draw sequence, so it must match this
// reference for every (n, k, seed).
func refSampleIndexes(n, k int, seed uint64) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	rng := xrand.New(seed)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = idx[i]
	}
	return out
}

// TestSampleIndexesPinned pins concrete outputs of the sampling helper.
// These values are part of the compatibility surface: View.Sample
// promises seed-reproducible selections, so a change here is a breaking
// change for callers that persist seeds.
func TestSampleIndexesPinned(t *testing.T) {
	cases := []struct {
		n, k int
		seed uint64
		want []int
	}{
		{10, 4, 7, []int{7, 3, 8, 9}},      // k a large share of n
		{100, 4, 7, []int{70, 28, 84, 98}}, // k ≪ n
		{8, 8, 1, []int{5, 4, 0, 1, 6, 2, 3, 7}},
		{1000, 6, 42, []int{83, 379, 680, 924, 991, 770}},
	}
	for _, c := range cases {
		got := query.SampleIndexes(c.n, c.k, c.seed)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("SampleIndexes(%d, %d, %d) = %v, want %v", c.n, c.k, c.seed, got, c.want)
		}
	}
}

// TestSampleIndexesBranchAgreement drives the map-backed helper against
// the array-backed reference across a grid of shapes and seeds, from k
// near n to k ≪ n: it must pick exactly the indexes the reference picks,
// or a seed would select different peers than its pinned contract says.
func TestSampleIndexesBranchAgreement(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 33, 100, 257, 1000, 5000} {
		for _, k := range []int{0, 1, 2, 3, 8, 17, 64} {
			for seed := uint64(0); seed < 5; seed++ {
				got := query.SampleIndexes(n, k, seed)
				want := refSampleIndexes(n, k, seed)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("SampleIndexes(%d, %d, %d) = %v, reference = %v", n, k, seed, got, want)
				}
				seen := make(map[int]bool, len(got))
				for _, ix := range got {
					if ix < 0 || ix >= n {
						t.Fatalf("SampleIndexes(%d, %d, %d): index %d out of range", n, k, seed, ix)
					}
					if seen[ix] {
						t.Fatalf("SampleIndexes(%d, %d, %d): duplicate index %d", n, k, seed, ix)
					}
					seen[ix] = true
				}
			}
		}
	}
}
