package query

import "peerwindow/internal/xrand"

// SampleIndexes draws min(k, n) distinct indexes uniformly from [0, n) with
// a partial Fisher–Yates shuffle seeded by seed. Only k draws are consumed
// from the generator, so the result for a given (n, k, seed) is stable
// regardless of how the virtual array is represented: when k is within a
// small factor of n the prefix of a real index array is shuffled (O(n)
// space, no map overhead); when k ≪ n only the displaced positions are
// tracked in a map (O(k) space). Both branches perform the identical swap
// sequence and therefore return identical indexes.
//
// View.Sample draws through this helper, so its result is pinned by the
// helper's (n, k, seed) contract.
func SampleIndexes(n, k int, seed uint64) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	rng := xrand.New(seed)
	out := make([]int, k)
	if 4*k >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + rng.Intn(n-i)
			idx[i], idx[j] = idx[j], idx[i]
			out[i] = idx[i]
		}
		return out
	}
	// Sparse branch: disp[p] is the value currently sitting at position p
	// where it differs from the identity.
	disp := make(map[int]int, 2*k)
	at := func(p int) int {
		if v, ok := disp[p]; ok {
			return v
		}
		return p
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		vi := at(j)
		disp[j] = at(i)
		out[i] = vi
	}
	return out
}
