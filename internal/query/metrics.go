package query

import "peerwindow/internal/metrics"

// Metric names exported by the query plane, declared once each in the
// form metrics.ValidName accepts (the registry panics on anything else).
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

// storeMetrics caches the counter and gauge handles a Store updates on its
// write path, so publishing a view never does a registry map lookup.
type storeMetrics struct {
	epoch        *metrics.Gauge
	entries      *metrics.Gauge
	buckets      *metrics.Gauge
	deltaAdd     *metrics.Counter
	deltaUpdate  *metrics.Counter
	deltaRemove  *metrics.Counter
	subsActive   *metrics.Gauge
	subDelivered *metrics.Counter
	subDropped   *metrics.Counter
}

func newStoreMetrics(reg *metrics.Registry) storeMetrics {
	return storeMetrics{
		epoch:        reg.Gauge(MetricQueryEpoch),
		entries:      reg.Gauge(MetricQueryEntries),
		buckets:      reg.Gauge(MetricQueryBuckets),
		deltaAdd:     reg.Counter(MetricQueryDeltasAdd),
		deltaUpdate:  reg.Counter(MetricQueryDeltasUpdate),
		deltaRemove:  reg.Counter(MetricQueryDeltasRemove),
		subsActive:   reg.Gauge(MetricQuerySubsActive),
		subDelivered: reg.Counter(MetricQuerySubsDelivered),
		subDropped:   reg.Counter(MetricQuerySubsDropped),
	}
}
