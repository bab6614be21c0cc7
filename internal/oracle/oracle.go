// Package oracle tracks ground truth for simulations: which nodes are
// alive, at what level, and therefore what every peer list *should*
// contain. This is the paper's own experimental device (§5): "we record
// all the correct peer lists in a centralized data structure, and only
// record erroneous items in nodes' individual data structures" — it makes
// 100,000-node runs fit in memory and makes peer-list error rates
// directly computable.
package oracle

import (
	"sort"

	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
)

// Registry is the centralized ground-truth membership table, ordered by
// nodeId. It is not safe for concurrent use.
type Registry struct {
	members []wire.Pointer // sorted by ID
	index   map[nodeid.ID]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[nodeid.ID]int)}
}

// Len returns the current membership count.
func (r *Registry) Len() int { return len(r.members) }

// search returns the insertion index for id.
func (r *Registry) search(id nodeid.ID) int {
	return sort.Search(len(r.members), func(i int) bool {
		return !r.members[i].ID.Less(id)
	})
}

// reindex rebuilds the position index from position from onward.
func (r *Registry) reindex(from int) {
	for i := from; i < len(r.members); i++ {
		r.index[r.members[i].ID] = i
	}
}

// Join records a node entering the system (or updates it in place if
// already present).
func (r *Registry) Join(p wire.Pointer) {
	if i, ok := r.index[p.ID]; ok {
		r.members[i] = p
		return
	}
	i := r.search(p.ID)
	r.members = append(r.members, wire.Pointer{})
	copy(r.members[i+1:], r.members[i:])
	r.members[i] = p
	r.reindex(i)
}

// Leave records a departure. It reports whether the node was present.
func (r *Registry) Leave(id nodeid.ID) bool {
	i, ok := r.index[id]
	if !ok {
		return false
	}
	copy(r.members[i:], r.members[i+1:])
	r.members = r.members[:len(r.members)-1]
	delete(r.index, id)
	r.reindex(i)
	return true
}

// Update replaces the stored pointer for an existing member (level or
// info change). It reports whether the node was present.
func (r *Registry) Update(p wire.Pointer) bool {
	i, ok := r.index[p.ID]
	if !ok {
		return false
	}
	r.members[i] = p
	return true
}

// Lookup returns the member pointer for id.
func (r *Registry) Lookup(id nodeid.ID) (wire.Pointer, bool) {
	if i, ok := r.index[id]; ok {
		return r.members[i], true
	}
	return wire.Pointer{}, false
}

// InPrefix returns the correct peer list for a node with the given
// eigenstring: every member whose ID matches the prefix, in ID order.
// The caller must not mutate the result; it aliases the registry's
// storage until the next mutation.
func (r *Registry) InPrefix(e nodeid.Eigenstring) []wire.Pointer {
	lo := r.search(e.Prefix)
	if e.Len == 0 {
		return r.members
	}
	delta := nodeid.ID{}.WithBit(e.Len-1, 1)
	upper := e.Prefix.Add(delta)
	hi := len(r.members)
	if !upper.IsZero() {
		hi = r.search(upper)
	}
	return r.members[lo:hi]
}

// Audience enumerates the audience set of subject — every member whose
// eigenstring is a prefix of subject's ID, in ID order. It is used to
// cross-check reconstructed multicast-tree coverage and runs in
// O(membership). The returned slice is the caller's.
func (r *Registry) Audience(subject nodeid.ID) []wire.Pointer {
	out := make([]wire.Pointer, 0, 32)
	for i := range r.members {
		m := &r.members[i]
		if m.ID.Prefix(int(m.Level)) == subject.Prefix(int(m.Level)) {
			out = append(out, *m)
		}
	}
	return out
}

// ForEach visits every member in ID order.
func (r *Registry) ForEach(fn func(p wire.Pointer)) {
	for i := range r.members {
		fn(r.members[i])
	}
}

// Errors is the outcome of auditing one peer list against ground truth.
type Errors struct {
	// Correct pointers present in both lists (level mismatches still
	// count as correct presence but are tallied separately).
	Correct int
	// Absent pointers: members the list should contain but does not.
	Absent int
	// Stale pointers: entries for nodes that have left the system.
	Stale int
	// LevelMismatch: present entries whose recorded level is out of
	// date.
	LevelMismatch int
}

// Total returns the number of erroneous items (absent + stale), the
// paper's error measure.
func (e Errors) Total() int { return e.Absent + e.Stale }

// Rate returns errors relative to the correct list size, the paper's
// "error rate of the peer list" (figures 7, 10, 12).
func (e Errors) Rate() float64 {
	should := e.Correct + e.Absent
	if should == 0 {
		if e.Stale > 0 {
			return 1
		}
		return 0
	}
	return float64(e.Total()) / float64(should)
}

// Audit compares an actual peer list (sorted or not) with the correct
// one for the given eigenstring. self is excluded from the expected
// list: a node need not point at itself.
func (r *Registry) Audit(self nodeid.ID, e nodeid.Eigenstring, actual []wire.Pointer) Errors {
	expected := r.InPrefix(e)
	have := make(map[nodeid.ID]wire.Pointer, len(actual))
	for _, p := range actual {
		have[p.ID] = p
	}
	var out Errors
	for i := range expected {
		m := &expected[i]
		if m.ID == self {
			continue
		}
		if p, ok := have[m.ID]; ok {
			out.Correct++
			if p.Level != m.Level {
				out.LevelMismatch++
			}
			delete(have, m.ID)
		} else {
			out.Absent++
		}
	}
	// Anything left in the map points at a node that is gone (or never
	// existed, or fell outside the prefix — all errors).
	out.Stale += len(have)
	return out
}
