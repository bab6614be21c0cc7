package sim

import "peerwindow/internal/nodeid"

// prefixCount maintains population counts per identifier prefix, for
// prefix lengths 0..depth. Adding a node increments the count of each of
// its depth+1 ancestor prefixes, so any group size — "how many nodes
// share these l leading bits" — is one array read. This is the data
// structure that makes the scaled simulator O(1) per membership change
// where a sorted registry would be O(N).
//
// Prefixes are dense array indices (the top l bits of the ID), so depth
// is capped at maxPrefixDepth to bound memory (2^(depth+1) ints total).
type prefixCount struct {
	depth int
	// counts[l][p] is the number of nodes whose top l bits equal p.
	counts [][]int32
	total  int
}

// maxPrefixDepth bounds the depth (2^21 int32s ≈ 8 MiB at 20).
const maxPrefixDepth = 20

func newPrefixCount(depth int) *prefixCount {
	if depth < 0 || depth > maxPrefixDepth {
		panic("sim: prefixCount depth out of range")
	}
	pc := &prefixCount{depth: depth, counts: make([][]int32, depth+1)}
	for l := 0; l <= depth; l++ {
		pc.counts[l] = make([]int32, 1<<uint(l))
	}
	return pc
}

// bucket returns the dense index of id's l-bit prefix.
func bucket(id nodeid.ID, l int) uint64 {
	if l == 0 {
		return 0
	}
	return id.Hi >> uint(64-l)
}

// Add counts a node at every ancestor prefix.
func (pc *prefixCount) Add(id nodeid.ID) {
	for l := 0; l <= pc.depth; l++ {
		pc.counts[l][bucket(id, l)]++
	}
	pc.total++
}

// addLeaf counts a node at the deepest prefix only, leaving every shorter
// prefix stale until fold runs. Warm starts count a whole population this
// way: one increment per node and one sequential pass per level, instead
// of depth+1 scattered increments per node.
func (pc *prefixCount) addLeaf(id nodeid.ID) {
	pc.counts[pc.depth][bucket(id, pc.depth)]++
	pc.total++
}

// fold recomputes every prefix's count as the sum of its two children,
// deepest level first — the state Add maintains incrementally.
func (pc *prefixCount) fold() {
	for l := pc.depth - 1; l >= 0; l-- {
		parent, child := pc.counts[l], pc.counts[l+1]
		for p := range parent {
			parent[p] = child[2*p] + child[2*p+1]
		}
	}
}

// Remove uncounts a node.
func (pc *prefixCount) Remove(id nodeid.ID) {
	for l := 0; l <= pc.depth; l++ {
		pc.counts[l][bucket(id, l)]--
	}
	pc.total--
}

// Count returns the number of nodes whose top l bits match id's.
func (pc *prefixCount) Count(id nodeid.ID, l int) int {
	if l > pc.depth {
		l = pc.depth
	}
	return int(pc.counts[l][bucket(id, l)])
}

// Total returns the total population counted.
func (pc *prefixCount) Total() int { return pc.total }

// levelPrefixCount maintains, per level, the count of level-l nodes in
// each l-bit prefix bucket — exactly the audience composition A_l(S) of
// figure 2: the number of level-l nodes whose eigenstring is a prefix of
// a subject S is one array read.
type levelPrefixCount struct {
	depth int
	// counts[l][p] is the number of level-l nodes with eigenstring p. A
	// level's array is allocated when its first node arrives: populations
	// use the top ten or so of the 21 levels, and the deep arrays are the
	// large ones.
	counts [][]int32
	perLvl []int
}

func newLevelPrefixCount(depth int) *levelPrefixCount {
	if depth < 0 || depth > maxPrefixDepth {
		panic("sim: levelPrefixCount depth out of range")
	}
	return &levelPrefixCount{
		depth:  depth,
		counts: make([][]int32, depth+1),
		perLvl: make([]int, depth+1),
	}
}

// Add counts a node operating at the given level.
func (lc *levelPrefixCount) Add(id nodeid.ID, level int) {
	if lc.counts[level] == nil {
		lc.counts[level] = make([]int32, 1<<uint(level))
	}
	lc.counts[level][bucket(id, level)]++
	lc.perLvl[level]++
}

// Remove uncounts a node at the given level.
func (lc *levelPrefixCount) Remove(id nodeid.ID, level int) {
	lc.counts[level][bucket(id, level)]--
	lc.perLvl[level]--
}

// Audience returns the number of level-l nodes whose eigenstring is a
// prefix of subject.
func (lc *levelPrefixCount) Audience(subject nodeid.ID, l int) int {
	if lc.counts[l] == nil {
		return 0
	}
	return int(lc.counts[l][bucket(subject, l)])
}

// LevelCount returns the population at a level.
func (lc *levelPrefixCount) LevelCount(l int) int { return lc.perLvl[l] }
