package query

import "peerwindow/internal/xrand"

// SampleIndexes draws min(k, n) distinct indexes uniformly from [0, n) with
// a partial Fisher–Yates shuffle seeded by seed. The virtual index array is
// never built: only the positions a swap has displaced are tracked, in a
// map, so the draw costs O(k) time and space whatever n is. Only k draws
// are consumed from the generator, so the result for a given (n, k, seed)
// is the one a shuffle of a real index array would return.
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
	// disp[p] is the value currently sitting at position p where it
	// differs from the identity.
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
