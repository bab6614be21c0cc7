package metrics

// Snapshot diffing: the telemetry exporter ships compact deltas rather
// than full snapshots (a full counter set is ~40 names × ~30 bytes per
// flush; after convergence almost none of them move between beacons).
// Diff computes the change between two snapshots of the same owner:
// counters as monotone deltas, gauges as last-write passthrough,
// histograms as bucket-wise subtraction.

import "sort"

// Diff returns the change from prev to s as a new Snapshot:
//
//   - Counters: s minus prev, omitting zero deltas. A counter that went
//     backwards (a replaced owner, or corrupted transport state) is a
//     monotonicity regression: its full current value is emitted as the
//     delta (resynchronizing any accumulator) and its name is returned
//     in regressed, sorted.
//   - Gauges: instantaneous values pass through unchanged (last-write
//     semantics; an accumulator overwrites, never adds).
//   - Histograms: bucket counts, total count and sum subtract. A
//     histogram whose bounds changed, or whose count went backwards, is
//     treated like a regressed counter: current state emitted whole,
//     name reported. Histograms with a zero count delta are omitted.
//
// prev may be the zero Snapshot, in which case the diff is s itself
// (minus zero-valued counters). The receiver and prev are not modified.
func (s Snapshot) Diff(prev Snapshot) (delta Snapshot, regressed []string) {
	delta = Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistSnapshot),
	}
	for name, cur := range s.Counters {
		old := prev.Counters[name]
		switch {
		case cur > old:
			delta.Counters[name] = cur - old
		case cur < old:
			delta.Counters[name] = cur
			regressed = append(regressed, name)
		}
	}
	for name, v := range s.Gauges {
		delta.Gauges[name] = v
	}
	for name, cur := range s.Histograms {
		old, ok := prev.Histograms[name]
		if !ok || !sameBounds(cur.Bounds, old.Bounds) || cur.Count < old.Count {
			if ok {
				regressed = append(regressed, name)
			}
			if cur.Count == 0 && !ok {
				continue
			}
			delta.Histograms[name] = cloneHist(cur)
			continue
		}
		if cur.Count == old.Count {
			continue
		}
		d := HistSnapshot{
			Bounds: append([]float64(nil), cur.Bounds...),
			Counts: make([]uint64, len(cur.Counts)),
			Count:  cur.Count - old.Count,
			Sum:    cur.Sum - old.Sum,
		}
		for i := range cur.Counts {
			d.Counts[i] = cur.Counts[i] - old.Counts[i]
		}
		delta.Histograms[name] = d
	}
	sort.Strings(regressed)
	return delta, regressed
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func cloneHist(h HistSnapshot) HistSnapshot {
	return HistSnapshot{
		Bounds: append([]float64(nil), h.Bounds...),
		Counts: append([]uint64(nil), h.Counts...),
		Count:  h.Count,
		Sum:    h.Sum,
	}
}

// Quantile estimates the q-quantile (0..1) of the observations in the
// histogram by linear interpolation inside the containing bucket. The
// first bucket interpolates from zero (the instrument set observes
// non-negative latencies and sizes); observations above the last bound
// clamp to it, so tail quantiles are a lower bound once the overflow
// bucket is populated. An empty histogram returns 0.
func (h HistSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	lower := 0.0
	for i, b := range h.Bounds {
		n := float64(h.Counts[i])
		if cum+n >= rank && n > 0 {
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(b-lower)
		}
		cum += n
		lower = b
	}
	return h.Bounds[len(h.Bounds)-1]
}
