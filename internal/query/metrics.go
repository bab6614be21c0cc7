package query

import "peerwindow/internal/metrics"

// Metric names exported by the query plane, declared once each in the
// form metrics.ValidName accepts.
const (
	// MetricQueryEpoch is the epoch of the most recently published view.
	MetricQueryEpoch = "query.epoch"
	// MetricQueryEntries is the entry count of the current view.
	MetricQueryEntries = "query.entries"
	// MetricQueryBuckets is the bucket count of the current view.
	MetricQueryBuckets = "query.buckets"
	// MetricQueryDeltasAdd counts PeerAdded deltas applied to the store.
	MetricQueryDeltasAdd = "query.deltas.add"
	// MetricQueryDeltasUpdate counts PeerUpdated deltas applied.
	MetricQueryDeltasUpdate = "query.deltas.update"
	// MetricQueryDeltasRemove counts PeerRemoved deltas applied.
	MetricQueryDeltasRemove = "query.deltas.remove"
	// MetricQuerySubsActive is the number of live subscriptions.
	MetricQuerySubsActive = "query.subs.active"
	// MetricQuerySubsDelivered counts deltas delivered into subscriber
	// buffers (post-filter).
	MetricQuerySubsDelivered = "query.subs.delivered"
	// MetricQuerySubsDropped counts deltas dropped because a subscriber's
	// buffer was full.
	MetricQuerySubsDropped = "query.subs.dropped"
)

// storeMetrics is a store's counters; the gauges are read from the
// current view and the subscription list when a snapshot is taken.
type storeMetrics struct {
	deltaAdd, deltaUpdate, deltaRemove metrics.Counter
	subDelivered, subDropped           metrics.Counter
}

// MetricsSnapshot returns a point-in-time copy of the store's metrics.
func (s *Store) MetricsSnapshot() metrics.Snapshot {
	v := s.View()
	var subs int
	if l := s.subs.Load(); l != nil {
		subs = len(*l)
	}
	return metrics.Snapshot{
		Counters: map[string]uint64{
			MetricQueryDeltasAdd:     s.m.deltaAdd.Value(),
			MetricQueryDeltasUpdate:  s.m.deltaUpdate.Value(),
			MetricQueryDeltasRemove:  s.m.deltaRemove.Value(),
			MetricQuerySubsDelivered: s.m.subDelivered.Value(),
			MetricQuerySubsDropped:   s.m.subDropped.Value(),
		},
		Gauges: map[string]int64{
			MetricQueryEpoch:      int64(v.epoch),
			MetricQueryEntries:    int64(v.total),
			MetricQueryBuckets:    int64(len(v.rows)),
			MetricQuerySubsActive: int64(subs),
		},
	}
}
